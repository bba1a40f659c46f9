package main

import "testing"

func TestParseSoCs(t *testing.T) {
	specs, err := parseSoCs("high,mid")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "high" || specs[1].Name != "mid" {
		t.Fatalf(`"high,mid" parsed to %+v`, specs)
	}
	for _, s := range specs {
		if s.Workers != 2 || s.SoC == nil {
			t.Fatalf("%s: %d workers, builder %v; want 2 and a builder", s.Name, s.Workers, s.SoC != nil)
		}
	}

	specs, err = parseSoCs("high=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "high" || specs[0].Workers != 3 {
		t.Fatalf(`"high=3" parsed to %+v`, specs)
	}

	// An empty spec leaves the server's default pool.
	if specs, err := parseSoCs(""); err != nil || specs != nil {
		t.Fatalf(`"" parsed to %+v, %v; want nil, nil`, specs, err)
	}

	for _, bad := range []string{"high=0", "high=-1", "high=x", "high=", "low", "high,tpu=2"} {
		if specs, err := parseSoCs(bad); err == nil {
			t.Errorf("%q parsed to %+v, want an error", bad, specs)
		}
	}
}
