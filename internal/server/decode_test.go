package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// TestDecodeSliceInPlace pins the slice semantics the decoder shares
// with encoding/json on repeated keys: a later array overwrites the
// slice in place, so a null element keeps whatever the backing array
// held; null resets to nil and [] to a non-nil empty slice.
func TestDecodeSliceInPlace(t *testing.T) {
	cases := []struct {
		body string
		want []float32
	}{
		{`{"input":[1,2,3],"input":[4],"input":[null,null,null]}`, []float32{4, 2, 3}},
		{`{"input":[1,2],"input":[null,null,null]}`, []float32{1, 2, 0}},
		{`{"input":[1,2],"input":[],"input":[null]}`, []float32{0}},
		{`{"input":[1,2],"input":null}`, nil},
		{`{"input":[1,2],"INPUT":[]}`, []float32{}},
	}
	for _, c := range cases {
		var got InferRequest
		if err := unmarshalInferRequest([]byte(c.body), &got); err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		if (got.Input == nil) != (c.want == nil) || !slices.Equal(got.Input, c.want) {
			t.Errorf("%s: input %#v, want %#v", c.body, got.Input, c.want)
		}
		var ref InferRequest
		if err := json.Unmarshal([]byte(c.body), &ref); err != nil {
			t.Fatal(err)
		}
		if d := diffRequests(got, ref); d != "" {
			t.Errorf("%s: %s", c.body, d)
		}
	}
}

// TestDecodeNestingLimit: an unknown member may nest arrays and objects
// up to encoding/json's depth limit, the top-level object included, and
// one level more is rejected — by the decoder and by PeekModel alike.
func TestDecodeNestingLimit(t *testing.T) {
	nest := func(depth int) []byte {
		inner := depth - 1 // the top-level object is one level
		core := "0"
		if inner%2 == 1 {
			core = "[]"
		}
		return []byte(`{"model":"m","x":` + strings.Repeat(`[{"y":`, inner/2) + core + strings.Repeat(`}]`, inner/2) + `}`)
	}
	for _, c := range []struct {
		depth int
		ok    bool
	}{{maxNesting - 1, true}, {maxNesting, true}, {maxNesting + 1, false}} {
		body := nest(c.depth)
		var got, ref InferRequest
		err := unmarshalInferRequest(body, &got)
		refErr := json.Unmarshal(body, &ref)
		if (err == nil) != c.ok || (refErr == nil) != c.ok {
			t.Errorf("depth %d: decoder error %v, encoding/json error %v, want ok=%v", c.depth, err, refErr, c.ok)
		}
		if m := PeekModel(body); (m == "m") != c.ok {
			t.Errorf("depth %d: PeekModel %q", c.depth, m)
		}
	}
}

// TestPeekModel: the frontend's routing key is what json.Unmarshal into
// struct{ Model string } leaves, without decoding the input floats.
func TestPeekModel(t *testing.T) {
	cases := []struct{ body, want string }{
		{`{"model":"googlenet"}`, "googlenet"},
		{`{"shape":[1,3],"input":[0.5,-1],"model":"lenet5"}`, "lenet5"},
		{`{"Model":"a"}`, "a"},
		{`{"model":"a","MODEL":"b"}`, "b"},
		{`{"mod\u0065l":"\u0065scaped"}`, "escaped"},
		{`{"model":"a","model":null}`, "a"},
		{`{"model":"a","model":7,"model":["b"]}`, "a"},
		{`{"model":"a","models":"b","input":[1e999]}`, "a"},
		{`{"model":"a",}`, ""},
		{`{"model":"a"} trailing`, ""},
		{`["model","a"]`, ""},
		{`null`, ""},
		{``, ""},
	}
	for _, c := range cases {
		if got := PeekModel([]byte(c.body)); got != c.want {
			t.Errorf("PeekModel(%s) = %q, want %q", c.body, got, c.want)
		}
		var ref struct{ Model string }
		_ = json.Unmarshal([]byte(c.body), &ref) // a type error still leaves Model set
		if ref.Model != c.want {
			t.Errorf("encoding/json finds %q in %s, table says %q", ref.Model, c.body, c.want)
		}
	}
}

// TestReadBody: bodies up to MaxBodyBytes come back whole, with or
// without a declared length; one byte more is an *http.MaxBytesError.
func TestReadBody(t *testing.T) {
	for _, c := range []struct {
		n       int
		chunked bool
		tooBig  bool
	}{
		{0, false, false}, {1 << 10, false, false}, {1 << 10, true, false},
		{MaxBodyBytes, false, false}, {MaxBodyBytes + 1, false, true}, {MaxBodyBytes + 1, true, true},
	} {
		body := bytes.Repeat([]byte{'x'}, c.n)
		r := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
		if c.chunked {
			r.ContentLength = -1
		}
		got, err := ReadBody(httptest.NewRecorder(), r)
		if c.tooBig {
			if !errors.As(err, new(*http.MaxBytesError)) {
				t.Errorf("%d bytes (chunked %v): error %v, want *http.MaxBytesError", c.n, c.chunked, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("%d bytes (chunked %v): read %d bytes, error %v", c.n, c.chunked, len(got), err)
		}
	}
}

// TestReadBodyPresizeBounded: a request that declares the largest body
// allowed and then sends nothing must not make ReadBody allocate the
// declared size.
func TestReadBodyPresizeBounded(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(nil))
	r.ContentLength = MaxBodyBytes
	got, err := ReadBody(httptest.NewRecorder(), r)
	if err != nil || len(got) != 0 {
		t.Fatalf("read %d bytes, error %v", len(got), err)
	}
	if c := cap(got); c > maxPresize+bytes.MinRead {
		t.Fatalf("buffer capacity %d for an empty body, want at most %d", c, maxPresize+bytes.MinRead)
	}
}

var benchReq InferRequest

// BenchmarkDecodeInferRequest decodes and validates one full 224² input
// row (≈1.6 MB of JSON) with the single-pass decoder and, for scale,
// with the encoding/json reference.
func BenchmarkDecodeInferRequest(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	in := make([]float32, 3*224*224)
	for i := range in {
		in[i] = float32(rng.Float64()*2 - 1)
	}
	body, err := json.Marshal(InferRequest{Model: "mobilenet", SoC: "high", Shape: []int{1, 3, 224, 224}, Input: in})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) (InferRequest, error)
	}{{"decoder", decodeInferRequest}, {"ref", decodeInferRequestRef}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req, err := bc.decode(body)
				if err != nil {
					b.Fatal(err)
				}
				benchReq = req
			}
		})
	}
}
