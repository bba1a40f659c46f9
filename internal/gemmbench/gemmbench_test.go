package gemmbench

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestZooShapesCoverBothKinds(t *testing.T) {
	shapes, err := ZooShapes(64, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	modelsSeen := map[string]bool{}
	for _, s := range shapes {
		kinds[s.Kind]++
		modelsSeen[s.Model] = true
		if s.M <= 0 || s.K <= 0 || s.N <= 0 {
			t.Fatalf("%s/%s: bad dims %dx%dx%d", s.Model, s.Layer, s.M, s.K, s.N)
		}
		if s.Kind == "fc" && s.N != 1 {
			t.Fatalf("%s/%s: fc shape with n=%d", s.Model, s.Layer, s.N)
		}
		if s.MACs != int64(s.M)*int64(s.K)*int64(s.N) {
			t.Fatalf("%s/%s: MACs %d inconsistent with dims", s.Model, s.Layer, s.MACs)
		}
	}
	if kinds["conv"] == 0 || kinds["fc"] == 0 {
		t.Fatalf("want both conv and fc shapes, got %v", kinds)
	}
	// Every zoo model contributes at least one shape (a few may dedup).
	if len(modelsSeen) < 5 {
		t.Fatalf("only %d models contributed shapes: %v", len(modelsSeen), modelsSeen)
	}
}

func TestSmokeRunProducesValidReport(t *testing.T) {
	rep, err := Run(SmokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(data); err != nil {
		t.Fatalf("smoke report fails validation: %v\n%s", err, data)
	}
}

func TestValidateRejectsBrokenReports(t *testing.T) {
	rep, err := Run(SmokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	good, _ := json.Marshal(rep)
	cases := []struct {
		name   string
		mutate func(r *Report)
		want   string
	}{
		{"no shapes", func(r *Report) { r.Shapes = nil }, "no shapes"},
		{"multithreaded", func(r *Report) { r.GoMaxProc = 8 }, "gomaxprocs"},
		{"no tile level", func(r *Report) { r.Tiles = "" }, "tiles"},
		{"zero throughput", func(r *Report) { r.Shapes[0].QPackedGOPS = 0 }, "want > 0"},
		{"bad kind", func(r *Report) { r.Shapes[0].Kind = "rnn" }, "unknown kind"},
		{"fc only", func(r *Report) {
			kept := r.Shapes[:0]
			for _, s := range r.Shapes {
				if s.Kind == "fc" {
					kept = append(kept, s)
				}
			}
			r.Shapes = kept
		}, "both conv and fc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r Report
			if err := json.Unmarshal(good, &r); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&r)
			data, _ := json.Marshal(r)
			err := Validate(data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
	if err := Validate([]byte("{not json")); err == nil {
		t.Fatal("malformed JSON must not validate")
	}
}
