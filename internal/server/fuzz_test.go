package server

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"
)

// inferSeeds is the /v1/infer body corpus both decode fuzz targets
// start from.
var inferSeeds = []string{
	`{"model":"lenet5"}`,
	`{"model":"googlenet","mechanism":"mulayer","soc":"high","timeout_ms":500}`,
	`{"model":"lenet5","batch":4}`,
	`{"model":"lenet5","batch":-1}`,
	`{"model":"lenet5","batch":1000000}`,
	`{"model":"lenet5","shape":[1,2,2],"input":[0,1,2,3]}`,
	`{"model":"lenet5","shape":[0],"input":[]}`,
	`{"model":"lenet5","shape":[-1,-1],"input":[1]}`,
	`{"model":"lenet5","shape":[1073741824,1073741824],"input":[]}`,
	`{"model":"lenet5","shape":[1],"input":[1e999]}`,
	`{"model":"lenet5","shape":[2],"input":[1]}`,
	`{"model":"lenet5","input":[1,2,3]}`,
	`{"model":"lenet5","shape":[1,1,1,1,1,1,1,1,1,1]}`,
	`{"model":"lenet5","timeout_ms":-5}`,
	`{"batch":"four"}`,
	`{"shape":{"x":1}}`,
	`{`,
	``,
	`null`,
	`[]`,
	`"model"`,
}

// FuzzDecodeInferRequest hammers the /v1/infer body parser with arbitrary
// bytes: malformed JSON, wrong field types, degenerate and overflowing
// shapes, oversized batches, and non-finite payloads must all come back
// as errors — never a panic — and any request the decoder accepts must
// satisfy the documented bounds.
func FuzzDecodeInferRequest(f *testing.F) {
	for _, s := range inferSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeInferRequest(data)
		if err != nil {
			return
		}
		if req.Batch < 0 || req.Batch > maxClientRows {
			t.Fatalf("accepted batch %d outside [0, %d]", req.Batch, maxClientRows)
		}
		if req.TimeoutMS < 0 {
			t.Fatalf("accepted negative timeout_ms %d", req.TimeoutMS)
		}
		if len(req.Input) > 0 && len(req.Shape) == 0 {
			t.Fatalf("accepted %d input values without a shape", len(req.Input))
		}
		if len(req.Shape) > maxShapeDims {
			t.Fatalf("accepted shape rank %d", len(req.Shape))
		}
		if len(req.Shape) > 0 {
			elems := 1
			for _, d := range req.Shape {
				if d < 1 {
					t.Fatalf("accepted non-positive dimension in %v", req.Shape)
				}
				elems *= d
			}
			if elems > maxInputElems {
				t.Fatalf("accepted %d-element shape %v", elems, req.Shape)
			}
			if len(req.Input) != elems {
				t.Fatalf("accepted input length %d against shape %v (%d elems)", len(req.Input), req.Shape, elems)
			}
			for i, v := range req.Input {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("accepted non-finite input[%d]", i)
				}
			}
		}
	})
}

// refSeeds are the cases where a hand-written decoder most easily
// departs from encoding/json: duplicate and case-folded keys, stale
// slice elements under null, nil versus empty slices, number edge cases,
// escapes and invalid UTF-8. TestDecodeNestingLimit covers the nesting
// limit, whose bodies would slow the fuzzer down.
var refSeeds = []string{
	`{"model":"a","model":"b"}`,
	`{"MODEL":"x","Model":"y"}`,
	`{"model":"x","MODEL":"y"}`,
	`{"\u017foc":"folded long s","SoC":"upper"}`,
	`{"mod\u0065l":"escaped key","Input":[1],"SHAPE":[1]}`,
	`{"\u212a":1,"timeout_MS":7}`,
	`{"model":null,"timeout_ms":null,"batch":null,"shape":null,"input":null}`,
	`{"model":5}`,
	`{"model":"a","model":5}`,
	`{"model":{"x":1},"model":["y"]}`,
	`{"shape":[1,2,3],"shape":[4]}`,
	`{"input":[1,2,3],"input":[null,null]}`,
	`{"input":[1,2,3],"input":[4],"input":[null,null,null]}`,
	`{"input":[1,2,3,4,5],"input":[],"input":[null,null]}`,
	`{"input":[1],"input":null,"input":[null]}`,
	`{"input":[]}`,
	`{"shape":[],"input":[]}`,
	`{"shape":[3],"input":[1,null,3]}`,
	`{"shape":[1],"input":[1e39]}`,
	`{"shape":[1],"input":[-1e39]}`,
	`{"shape":[2],"input":[-0,1e-50]}`,
	`{"shape":[3],"input":[3.4028235e38,1.401298464324817e-45,0.1]}`,
	`{"shape":[1.0]}`,
	`{"batch":1.0}`,
	`{"batch":-0}`,
	`{"batch":1e2}`,
	`{"batch":9223372036854775807}`,
	`{"batch":9223372036854775808}`,
	`{"batch":01}`,
	`{"batch":-}`,
	`{"batch":1.}`,
	`{"batch":.5}`,
	`{"batch":+1}`,
	`{"input":[1,2,]}`,
	`{"input":["1"]}`,
	`{"input":[true]}`,
	`{"input":[[1]]}`,
	`{"shape":"1"}`,
	`{"model":"\ud800","soc":"\u00e9\n\"\\\/\b\f\r\t"}`,
	"{\"model\":\"\xff\xfe\",\"soc\":\"h\xc3\xa9\"}",
	"{\"\xff\":1}",
	"{\"model\":\"a\tb\"}",
	`{"model":"\x"}`,
	`{"model":"\u12"}`,
	`{"a":1,}`,
	`{"a" 1}`,
	`{"a":1 "b":2}`,
	`{1:2}`,
	` null `,
	`nul`,
	`nullx`,
	`true`,
	`1`,
	`{"model":"x"} x`,
	`{"model":"x"}}`,
	`{"x":[[[]]],"y":{"z":[1,{"w":null}]},"v":[true,false,"s",-1.5e+3]}`,
	`{"x":tru}`,
	"\t\r\n {\"model\" :\n\"lenet5\" , \"batch\":\t2 }\r\n",
}

// decodeInferRequestRef is the reference /v1/infer decoder: reflective
// encoding/json followed by the same validation as decodeInferRequest.
func decodeInferRequestRef(body []byte) (InferRequest, error) {
	var req InferRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("bad JSON: %w", err)
	}
	return req, req.validate()
}

// diffRequests describes the first field in which two decoded requests
// differ, comparing floats by bits and telling nil from empty slices;
// "" means they are identical.
func diffRequests(got, want InferRequest) string {
	if got.Model != want.Model || got.Mechanism != want.Mechanism || got.SoC != want.SoC ||
		got.Priority != want.Priority || got.TimeoutMS != want.TimeoutMS || got.Batch != want.Batch {
		return fmt.Sprintf("scalars %+v, want %+v", got, want)
	}
	if (got.Shape == nil) != (want.Shape == nil) || !slices.Equal(got.Shape, want.Shape) {
		return fmt.Sprintf("shape %#v, want %#v", got.Shape, want.Shape)
	}
	if (got.Input == nil) != (want.Input == nil) || len(got.Input) != len(want.Input) {
		return fmt.Sprintf("input %#v, want %#v", got.Input, want.Input)
	}
	for i := range got.Input {
		if math.Float32bits(got.Input[i]) != math.Float32bits(want.Input[i]) {
			return fmt.Sprintf("input[%d] = %v, want %v", i, got.Input[i], want.Input[i])
		}
	}
	return ""
}

// FuzzDecodeInferRequestRef holds the single-pass decoder to
// encoding/json: for every input both accept or both reject, an accepted
// body decodes to identical fields, the validated decoders agree, and
// PeekModel finds what json.Unmarshal into struct{ Model string } does.
func FuzzDecodeInferRequestRef(f *testing.F) {
	for _, s := range inferSeeds {
		f.Add([]byte(s))
	}
	for _, s := range refSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want InferRequest
		gotErr := unmarshalInferRequest(data, &got)
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decoder error %v, encoding/json error %v", data, gotErr, wantErr)
		}
		if gotErr == nil {
			if d := diffRequests(got, want); d != "" {
				t.Fatalf("%q: %s", data, d)
			}
		}
		_, gotErr = decodeInferRequest(data)
		_, wantErr = decodeInferRequestRef(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: validated decoder error %v, reference error %v", data, gotErr, wantErr)
		}
		var peek struct{ Model string }
		_ = json.Unmarshal(data, &peek) // a type error still leaves Model set
		if m := PeekModel(data); m != peek.Model {
			t.Fatalf("%q: PeekModel %q, encoding/json %q", data, m, peek.Model)
		}
	})
}

// FuzzOverloadConfig hammers the -overload spec parser with arbitrary
// strings: unknown keys, non-finite numbers, negative durations, and
// garbage must come back as errors — never a panic — and any config the
// parser accepts must itself pass Validate and survive withDefaults
// (NewScheduler runs both on every accepted spec).
func FuzzOverloadConfig(f *testing.F) {
	seeds := []string{
		"",
		"admit=on",
		"admit=on,watchdog=8,queue-wait=50ms,eval=10ms,hold=1s,retry-rate=5,retry-burst=10",
		"watchdog=1",
		"watchdog=0.5",
		"watchdog=NaN",
		"watchdog=-Inf",
		"watchdog=1e309",
		"queue-wait=10ms",
		"queue-wait=-1s",
		"queue-wait=9223372036854775807ns",
		"eval=0s,hold=0s",
		"retry-rate=0.0001,retry-burst=1",
		"retry-rate=Inf",
		"retry-burst=-1",
		"admit=maybe",
		"admit",
		"bogus=1",
		",,,",
		"admit=on,admit=off",
		"queue-wait=50ms,queue-wait=-50ms",
		"=",
		"watchdog==8",
		"admit=on\x00",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseOverloadSpec(spec)
		if err != nil {
			return
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("parser accepted %q but Validate rejects the result: %v", spec, verr)
		}
		def := cfg.withDefaults()
		if verr := def.Validate(); verr != nil {
			t.Fatalf("withDefaults broke a valid config from %q: %v", spec, verr)
		}
		if cfg.QueueWaitP95 > 0 && (def.EvalEvery <= 0 || def.Hold <= 0) {
			t.Fatalf("ladder enabled by %q but defaults left EvalEvery=%v Hold=%v", spec, def.EvalEvery, def.Hold)
		}
		if cfg.RetryRate > 0 && def.RetryBurst < 1 {
			t.Fatalf("retry budget enabled by %q but burst defaulted to %d", spec, def.RetryBurst)
		}
	})
}
