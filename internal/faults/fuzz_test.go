package faults

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mulayer/internal/soc"
)

// FuzzFaultConfig hardens the fault-spec decoder: any input must either
// parse into configs that validate cleanly and drive an injector without
// panicking, or return an error — never crash.
func FuzzFaultConfig(f *testing.F) {
	for _, seed := range []string{
		"",
		"fail=0.05,stall=0.02,stallx=5,die=0.001,panic=0.001,seed=42",
		"high:fail=0.1,die=0.01;mid:fail=0.02",
		"proc=gpu,max=1,die=1",
		"fail=NaN",
		"stallx=1e308",
		"stall=1,stallx=1e308",
		"stall=1,stallx=1000",
		";;;",
		"a:b:c",
		"fail=0.3,fail=0.3",
		"high:;mid:fail=0.1",
		"latms=NaN",
		"hangms=NaN",
	} {
		f.Add(seed)
	}
	cpu := soc.Exynos7420().CPU
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for class, cfg := range m {
			if verr := cfg.Validate(); verr != nil {
				t.Fatalf("spec %q: class %q parsed but does not validate: %v", spec, class, verr)
			}
			// A parsed config must drive an injector without panicking
			// (injected Panic decisions are the one intentional panic),
			// and no stall may overflow a kernel's duration, even an
			// hour-long kernel's.
			in := New(cfg, 1)
			for i := 0; i < 8; i++ {
				func() {
					defer func() { _ = recover() }()
					kernel := []time.Duration{time.Millisecond, time.Hour}[i%2]
					if d, _ := in.Kernel(cpu, "fuzz", kernel); d < 0 {
						t.Fatalf("spec %q: class %q kernel duration %v", spec, class, d)
					}
				}()
			}
		}
	})
}

// nopTripper is an in-memory backend for fuzz drives: every request
// gets a small fixed 200.
type nopTripper struct{}

func (nopTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode:    http.StatusOK,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		ContentLength: 4,
		Header:        http.Header{},
		Body:          io.NopCloser(strings.NewReader(`"ok"`)),
		Request:       req,
	}, nil
}

// FuzzNetFaultConfig hardens the network-fault spec decoder: any input
// must either parse into configs that validate cleanly and drive a
// Transport without panicking, or return an error — never crash.
func FuzzNetFaultConfig(f *testing.F) {
	for _, seed := range []string{
		"",
		"drop=0.02,reset=0.01,seed=42",
		"target=127.0.0.1:8081,lat=1,latms=250;target=127.0.0.1:8082,corrupt=0.5",
		"dialto=0.05,hangms=1,max=20",
		"trunc=1",
		"lat=NaN",
		"latms=1e308",
		";;;",
		"target=a:1,reset=1;target=a:1,drop=1",
		"reset=0.6,drop=0.6",
		"max=9999999999999",
		"latms=NaN",
		"hangms=NaN",
		"lat=1,latms=NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfgs, err := ParseNetSpec(spec)
		if err != nil {
			return
		}
		for target, cfg := range cfgs {
			if verr := cfg.Validate(); verr != nil {
				t.Fatalf("spec %q: target %q parsed but does not validate: %v", spec, target, verr)
			}
			if cfg.Target != target {
				t.Fatalf("spec %q: config for %q carries target %q", spec, target, cfg.Target)
			}
			checkDurations(t, spec, cfg.Latency, cfg.DialHang)
		}
		// A parsed spec must drive a transport without panicking. Cap the
		// injected delays so a latency fault cannot stall the fuzzer.
		for target, cfg := range cfgs {
			cfg.Latency = 1 // nanoseconds: keep the code path, not the wait
			cfg.DialHang = 1
			cfgs[target] = cfg
		}
		tr := NewTransport(cfgs, nopTripper{})
		req, rerr := http.NewRequest(http.MethodGet, "http://fuzz.invalid:1/x", nil)
		if rerr != nil {
			t.Fatal(rerr)
		}
		for i := 0; i < 8; i++ {
			resp, err := tr.RoundTrip(req)
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		_ = tr.TotalStats()
	})
}

// checkDurations fails when a duration an accepted spec set lies outside
// [0, 1h], the range every duration key admits (a NaN parses to one).
func checkDurations(t *testing.T, spec string, ds ...time.Duration) {
	t.Helper()
	for _, d := range ds {
		if d < 0 || d > time.Hour {
			t.Fatalf("spec %q: accepted duration %v outside [0, 1h]", spec, d)
		}
	}
}
