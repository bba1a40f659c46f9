package faults

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mulayer/internal/device"
	"mulayer/internal/soc"
)

func procs(t *testing.T) (*device.Processor, *device.Processor) {
	t.Helper()
	s := soc.Exynos7420()
	return s.CPU, s.GPU
}

// drive pushes n kernels through the injector and returns the decision
// trace (kind per kernel, duration-relative).
func drive(in *Injector, p *device.Processor, n int) []Kind {
	out := make([]Kind, n)
	base := time.Millisecond
	for i := range out {
		func() {
			defer func() {
				if r := recover(); r != nil {
					out[i] = Panic
				}
			}()
			d, err := in.Kernel(p, "k", base)
			switch {
			case err != nil:
				var f *Fault
				if errors.As(err, &f) {
					out[i] = f.Kind
				} else {
					out[i] = Fail
				}
			case d > base:
				out[i] = Stall
			default:
				out[i] = None
			}
		}()
	}
	return out
}

func TestDeterministicStreams(t *testing.T) {
	cpu, _ := procs(t)
	cfg := Config{Seed: 7, FailRate: 0.2, StallRate: 0.1, PanicRate: 0.05}
	a := drive(New(cfg, 3), cpu, 500)
	b := drive(New(cfg, 3), cpu, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	// A different salt must give a different stream.
	c := drive(New(cfg, 4), cpu, 500)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("salted streams identical")
	}
}

func TestRatesRoughlyHonored(t *testing.T) {
	cpu, _ := procs(t)
	in := New(Config{Seed: 1, FailRate: 0.1, StallRate: 0.1}, 0)
	const n = 5000
	trace := drive(in, cpu, n)
	counts := map[Kind]int{}
	for _, k := range trace {
		counts[k]++
	}
	for _, k := range []Kind{Fail, Stall} {
		frac := float64(counts[k]) / n
		if frac < 0.06 || frac > 0.14 {
			t.Fatalf("%v fraction %.3f, want ≈0.10", k, frac)
		}
	}
	st := in.Stats()
	if st.Events != n || st.Kinds[Fail] != int64(counts[Fail]) || st.Kinds[Stall] != int64(counts[Stall]) {
		t.Fatalf("stats %+v disagree with trace %v", st, counts)
	}
}

func TestDeathIsSticky(t *testing.T) {
	cpu, _ := procs(t)
	in := New(Config{Seed: 1, DieRate: 1}, 0)
	if _, err := in.Kernel(cpu, "k0", time.Millisecond); err == nil {
		t.Fatal("die rate 1 did not kill")
	}
	// Every later kernel on the dead processor fails with a Die fault,
	// without consuming budget or randomness.
	for i := 0; i < 3; i++ {
		_, err := in.Kernel(cpu, "k", time.Millisecond)
		var f *Fault
		if !errors.As(err, &f) || f.Kind != Die {
			t.Fatalf("dead processor kernel %d: got %v, want Die fault", i, err)
		}
	}
	if len(in.dead) != 1 || !in.dead[cpu.Name] {
		t.Fatalf("dead procs %v", in.dead)
	}
	if st := in.Stats(); st.Kinds[Die] != 1 {
		t.Fatalf("die counted %d times, want 1", st.Kinds[Die])
	}
}

func TestProcFilterAndBudget(t *testing.T) {
	cpu, gpu := procs(t)
	in := New(Config{Seed: 1, FailRate: 1, Proc: "gpu", MaxFaults: 2}, 0)
	if _, err := in.Kernel(cpu, "k", time.Millisecond); err != nil {
		t.Fatalf("cpu kernel faulted under gpu filter: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := in.Kernel(gpu, "k", time.Millisecond); err == nil {
			t.Fatalf("gpu kernel %d did not fault", i)
		}
	}
	// Budget exhausted: the injector goes quiet.
	if _, err := in.Kernel(gpu, "k", time.Millisecond); err != nil {
		t.Fatalf("budget-exhausted kernel faulted: %v", err)
	}
	if st := in.Stats(); st.Kinds[Fail] != 2 {
		t.Fatalf("fails %d, want 2", st.Kinds[Fail])
	}
}

func TestStallInflatesDuration(t *testing.T) {
	cpu, _ := procs(t)
	in := New(Config{Seed: 1, StallRate: 1, StallFactor: 4}, 0)
	d, err := in.Kernel(cpu, "k", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d != 40*time.Millisecond {
		t.Fatalf("stalled duration %v, want 40ms", d)
	}
}

func TestObserveCallback(t *testing.T) {
	cpu, _ := procs(t)
	in := New(Config{Seed: 1, FailRate: 1}, 0)
	var got []string
	in.Observe = func(k Kind, proc string) { got = append(got, k.String()+":"+proc) }
	_, _ = in.Kernel(cpu, "k", time.Millisecond)
	if len(got) != 1 || got[0] != "fail:"+cpu.Name {
		t.Fatalf("observations %v", got)
	}
}

func TestParseSpec(t *testing.T) {
	m, err := ParseSpec("fail=0.05,stall=0.02,stallx=5,die=0.001,panic=0.001,seed=42,max=10")
	if err != nil {
		t.Fatal(err)
	}
	cfg, ok := m[""]
	if !ok {
		t.Fatalf("no all-classes config in %v", m)
	}
	want := Config{Seed: 42, FailRate: 0.05, StallRate: 0.02, StallFactor: 5, DieRate: 0.001, PanicRate: 0.001, MaxFaults: 10}
	if cfg != want {
		t.Fatalf("got %+v, want %+v", cfg, want)
	}

	m, err = ParseSpec("high:fail=0.1,proc=gpu;mid:die=1,max=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["high"].FailRate != 0.1 || m["high"].Proc != "gpu" || m["mid"].DieRate != 1 || m["mid"].MaxFaults != 1 {
		t.Fatalf("scoped parse %v", m)
	}

	if m, err = ParseSpec("  "); err != nil || len(m) != 0 {
		t.Fatalf("empty spec: %v %v", m, err)
	}

	for _, bad := range []string{
		"fail=2",                       // rate out of range
		"fail=-0.1",                    // negative
		"fail=NaN",                     // non-finite
		"stallx=0.5",                   // factor below 1
		"stallx=+Inf",                  // non-finite factor
		"stallx=1e308",                 // factor past maxStallFactor
		"fail=0.6,die=0.6",             // rates sum past 1
		"bogus=1",                      // unknown key
		"fail",                         // missing value
		"proc=tpu",                     // unknown processor
		"max=-1",                       // negative budget
		"high:fail=0.1;high:fail=0.2",  // duplicate class
		":fail=0.1",                    // empty class scope
		"seed=1,seed=2",                // duplicate key
		"fail=0.1,fail=0.2",            // duplicate key
		"fail=",                        // empty value
		"seed=",                        // empty value
		"max=",                         // empty value
		"high:fail=0.1;high:stall=0.1", // duplicate class, disjoint keys
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestParseSpecAcceptSet pins what the grammar tolerates: blank
// fields and blocks, whitespace around keys and values, and an empty
// processor filter, which means every processor.
func TestParseSpecAcceptSet(t *testing.T) {
	for spec, want := range map[string]map[string]Config{
		" fail = 0.1 , , stall=0.1 ": {"": {FailRate: 0.1, StallRate: 0.1}},
		";;high: die=1 ;;":           {"high": {DieRate: 1}},
		"proc=,fail=0.5":             {"": {FailRate: 0.5}},
		"max=0,seed=-3":              {"": {Seed: -3}},
	} {
		got, err := ParseSpec(spec)
		if err != nil {
			t.Errorf("spec %q: %v", spec, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("spec %q: %v, want %v", spec, got, want)
		}
		for class, cfg := range want {
			if got[class] != cfg {
				t.Errorf("spec %q class %q: %+v, want %+v", spec, class, got[class], cfg)
			}
		}
	}
}

func TestParseSpecErrorsMentionClass(t *testing.T) {
	_, err := ParseSpec("high:fail=3")
	if err == nil || !strings.Contains(err.Error(), "high") {
		t.Fatalf("error %v does not name the class", err)
	}
}

// TestKindNames pins every kind's name — the values of the
// mulayer_faults_injected_total{kind} label — and checks that no two
// kinds share one, so a shifted table entry cannot rename a label.
func TestKindNames(t *testing.T) {
	want := map[Kind]string{
		None: "none", Stall: "stall", Fail: "fail", Die: "die", Panic: "panic",
		Latency: "latency", DialTimeout: "dial_timeout", Reset: "reset",
		Drop: "drop", Truncate: "truncate", Corrupt: "corrupt",
	}
	if len(want) != len(kindNames) {
		t.Fatalf("%d kinds pinned here, %d named", len(want), len(kindNames))
	}
	seen := make(map[string]Kind)
	for k := Kind(0); int(k) < len(kindNames); k++ {
		name := k.String()
		if name != want[k] {
			t.Errorf("Kind(%d) is %q, want %q", int(k), name, want[k])
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("Kind(%d) and Kind(%d) share the name %q", int(prev), int(k), name)
		}
		seen[name] = k
	}
	for _, k := range []Kind{-1, Kind(len(kindNames))} {
		if got, want := k.String(), fmt.Sprintf("Kind(%d)", int(k)); got != want {
			t.Errorf("out-of-range kind is %q, want %q", got, want)
		}
	}
}

// TestRateSumOrder pins the sum-≤-1 verdict on rate sets where float
// rounding makes it depend on the order the rates are added in: the
// rates are summed in Kind order, whatever order a config draws them in.
func TestRateSumOrder(t *testing.T) {
	for spec, ok := range map[string]bool{
		"fail=0.2,stall=0.1,die=0.4,panic=0.3": true,  // sums to 1 in Kind order, 1+2⁻⁵² in draw order
		"fail=0.2,stall=0.4,die=0.3,panic=0.1": false, // sums to 1+2⁻⁵² in Kind order, 1 in draw order
	} {
		if _, err := ParseSpec(spec); (err == nil) != ok {
			t.Errorf("ParseSpec(%q): %v, want accepted=%v", spec, err, ok)
		}
	}
	for spec, ok := range map[string]bool{
		"lat=0.1,dialto=0.2,reset=0.4,drop=0.3": true,
		"lat=0.2,dialto=0.4,reset=0.3,drop=0.1": false,
	} {
		if _, err := ParseNetSpec(spec); (err == nil) != ok {
			t.Errorf("ParseNetSpec(%q): %v, want accepted=%v", spec, err, ok)
		}
	}
}
