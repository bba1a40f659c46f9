package frontend

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mulayer/internal/server"
)

func TestVerifyIntegrity(t *testing.T) {
	body := []byte(`{"model":"lenet5"}` + "\n")
	resp := func(cl int64, sum string) *http.Response {
		r := &http.Response{ContentLength: cl, Header: http.Header{}}
		if sum != "" {
			r.Header.Set(server.ChecksumHeader, sum)
		}
		return r
	}
	cases := []struct {
		name   string
		resp   *http.Response
		reason string
	}{
		{"unknown length, no checksum", resp(-1, ""), ""},
		{"exact length", resp(int64(len(body)), ""), ""},
		{"short body", resp(int64(len(body))+3, ""), "length"},
		{"long body", resp(int64(len(body))-1, ""), "length"},
		{"matching checksum", resp(-1, server.BodyChecksum(body)), ""},
		{"wrong checksum", resp(-1, "crc32c=deadbeef"), "checksum"},
		// A truncated reply keeps its stale Content-Length: the length
		// check fires first and carries the more precise reason.
		{"both wrong", resp(int64(len(body))+3, "crc32c=deadbeef"), "length"},
	}
	for _, tc := range cases {
		reason, err := verifyIntegrity(tc.resp, body)
		if reason != tc.reason {
			t.Errorf("%s: reason %q, want %q", tc.name, reason, tc.reason)
		}
		if (err != nil) != (tc.reason != "") {
			t.Errorf("%s: err %v with reason %q", tc.name, err, tc.reason)
		}
	}
}

// grabBackend fetches the registry's backend struct for a URL.
func grabBackend(t *testing.T, r *Registry, url string) *backend {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.backends[url]
	if !ok {
		t.Fatalf("backend %s not registered", url)
	}
	return b
}

// TestOutlierEjection walks a gray-slow backend through the ejector:
// consistently slow served latencies eject it from rotation (it still
// answers /readyz, so only passive evidence can), and the quarantine
// half-open probe readmits it once its backoff expires.
func TestOutlierEjection(t *testing.T) {
	leakCheck(t)
	fbs := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	urls := []string{fbs[0].ts.URL, fbs[1].ts.URL, fbs[2].ts.URL}
	f, fts := newTestFrontend(t, Config{
		Backends:        urls,
		ProbeEvery:      20 * time.Millisecond,
		ProbeTimeout:    500 * time.Millisecond,
		EjectFactor:     3,
		EjectHold:       40 * time.Millisecond,
		EjectMinSamples: 4,
		EjectBackoff:    300 * time.Millisecond,
	})
	reg := f.Registry()

	// Two healthy backends at ~5ms, one gray-slow at 100ms. Feeding
	// observeSuccess directly is the same path proxied replies take.
	slow := grabBackend(t, reg, urls[2])
	feed := func() {
		for i, u := range urls {
			lat := 5 * time.Millisecond
			if i == 2 {
				lat = 100 * time.Millisecond
			}
			reg.observeSuccess(grabBackend(t, reg, u), lat, true)
		}
	}
	for i := 0; i < 8; i++ {
		feed()
	}
	eventually(t, 3*time.Second, "slow backend ejected", func() bool {
		return reg.EjectedCount() == 1
	})

	// A straggling leg landing as 2xx after the ejection must not
	// readmit it: an ejected backend's replies are successful by
	// construction (it is slow, not broken), so only the half-open probe
	// after the backoff may let it back in.
	reg.observeSuccess(slow, 5*time.Millisecond, true)
	if reg.EjectedCount() != 1 {
		t.Fatal("a passive served reply short-circuited the ejection backoff")
	}

	// While ejected it is not a routing candidate, and the surfaces say so.
	ranked, _ := reg.Rank("lenet5", nil)
	for _, b := range ranked {
		if b.url == urls[2] {
			t.Fatal("ejected backend still ranked")
		}
	}
	resp, err := http.Get(fts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(data), `"ejected":1`) {
		t.Errorf("statusz does not count the ejection: %s", data)
	}

	// The backend still answers /readyz, so the half-open probe readmits
	// it once the ejection backoff expires.
	eventually(t, 3*time.Second, "slow backend readmitted", func() bool {
		return reg.EjectedCount() == 0 && reg.HealthyCount() == 3
	})
	reg.mu.Lock()
	ejections := slow.ejections
	reg.mu.Unlock()
	if ejections < 1 {
		t.Fatalf("ejections = %d, want >= 1", ejections)
	}
	resp, err = http.Get(fts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"mulayer_frontend_ejections_total",
		`event="ejected"`,
		`event="readmitted"`,
		"mulayer_frontend_backends_ejected 0",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestEjectionCapFleetwideSlowdown: when every backend is slow (overload,
// not grayness) the median moves with them and nobody is ejected; and
// with fewer than three measured backends the ejector stands down.
func TestEjectionCapFleetwideSlowdown(t *testing.T) {
	leakCheck(t)
	fbs := []*fakeBackend{newFakeBackend(t), newFakeBackend(t), newFakeBackend(t)}
	urls := []string{fbs[0].ts.URL, fbs[1].ts.URL, fbs[2].ts.URL}
	f, _ := newTestFrontend(t, Config{
		Backends:        urls,
		ProbeEvery:      20 * time.Millisecond,
		EjectFactor:     3,
		EjectHold:       30 * time.Millisecond,
		EjectMinSamples: 4,
		EjectBackoff:    100 * time.Millisecond,
	})
	reg := f.Registry()
	for i := 0; i < 8; i++ {
		for _, u := range urls {
			reg.observeSuccess(grabBackend(t, reg, u), 200*time.Millisecond, true)
		}
	}
	time.Sleep(200 * time.Millisecond) // several probe rounds
	if n := reg.EjectedCount(); n != 0 {
		t.Fatalf("fleet-wide slowdown ejected %d backends", n)
	}

	// Two-backend fleet: a 20x spread is still not ejectable — an
	// outlier needs a median to stand out from.
	f2, _ := newTestFrontend(t, Config{
		Backends:        urls[:2],
		ProbeEvery:      20 * time.Millisecond,
		EjectFactor:     3,
		EjectHold:       30 * time.Millisecond,
		EjectMinSamples: 4,
		EjectBackoff:    100 * time.Millisecond,
	})
	reg2 := f2.Registry()
	for i := 0; i < 8; i++ {
		reg2.observeSuccess(grabBackend(t, reg2, urls[0]), 5*time.Millisecond, true)
		reg2.observeSuccess(grabBackend(t, reg2, urls[1]), 100*time.Millisecond, true)
	}
	time.Sleep(200 * time.Millisecond)
	if n := reg2.EjectedCount(); n != 0 {
		t.Fatalf("two-backend fleet ejected %d backends", n)
	}
}

// ejectorRegistry builds a frontend whose prober never fires, so a test
// drives the ejector as a pure state machine, and seeds every backend's
// latency window: the last one is gray-slow, the others fast.
func ejectorRegistry(t *testing.T, n int) (*Registry, []string) {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://10.0.0.%d:1", i+1)
	}
	f, err := New(Config{
		Backends:          urls,
		ProbeEvery:        time.Hour, // the test drives the ejector itself
		FailThreshold:     1,
		QuarantineBackoff: time.Hour,
		EjectFactor:       3,
		EjectHold:         300 * time.Millisecond,
		EjectMinSamples:   4,
		EjectBackoff:      time.Second,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	reg := f.Registry()
	for i := 0; i < 8; i++ {
		for j, u := range urls {
			lat := 5 * time.Millisecond
			if j == n-1 {
				lat = 250 * time.Millisecond
			}
			reg.observeSuccess(grabBackend(t, reg, u), lat, true)
		}
	}
	return reg, urls
}

// TestEjectionSurvivesLossyFleet is the fleet chaos failure as a pure
// state-machine scenario: a lossy network has opened the breaker on two
// healthy backends of four. Their latency windows still make the
// median, so the gray-slow backend is ejected while one healthy member
// stays routable. That survivor then slows under the whole fleet's
// load; against the quarantined members' stale fast windows it looks
// like an outlier, but the cap keeps it in rotation.
func TestEjectionSurvivesLossyFleet(t *testing.T) {
	reg, urls := ejectorRegistry(t, 4)
	now := time.Now()
	reg.observeFailure(grabBackend(t, reg, urls[0]), now)
	reg.observeFailure(grabBackend(t, reg, urls[1]), now)
	if n := reg.HealthyCount(); n != 2 {
		t.Fatalf("healthy = %d after two breaker trips, want 2", n)
	}

	reg.evaluateEjections(now)
	reg.evaluateEjections(now.Add(400 * time.Millisecond))
	if !grabBackend(t, reg, urls[3]).ejected {
		t.Fatal("gray-slow backend not ejected while the breaker held two healthy backends out")
	}
	survivor := grabBackend(t, reg, urls[2])
	for range ejectWindow {
		reg.observeSuccess(survivor, 250*time.Millisecond, true)
	}
	for d := 500 * time.Millisecond; d <= 2*time.Second; d += 100 * time.Millisecond {
		reg.evaluateEjections(now.Add(d))
	}
	if survivor.ejected {
		t.Fatal("ejected the last routable backend")
	}
	if n := reg.HealthyCount(); n != 1 {
		t.Fatalf("healthy = %d, want 1", n)
	}
}

// TestEjectionNeverEmptiesFleet: with the breaker holding two of three
// backends out, the slow one is the whole fleet's capacity and must stay
// in rotation however stale the others' fast windows are.
func TestEjectionNeverEmptiesFleet(t *testing.T) {
	reg, urls := ejectorRegistry(t, 3)
	now := time.Now()
	reg.observeFailure(grabBackend(t, reg, urls[0]), now)
	reg.observeFailure(grabBackend(t, reg, urls[1]), now)
	for d := time.Duration(0); d <= time.Second; d += 100 * time.Millisecond {
		reg.evaluateEjections(now.Add(d))
	}
	if grabBackend(t, reg, urls[2]).ejected {
		t.Fatal("ejected the only routable backend")
	}
	if n := reg.HealthyCount(); n != 1 {
		t.Fatalf("healthy = %d, want 1", n)
	}
}

// TestEjectionQuorumPausesHold: time without a quorum of measured
// backends does not count toward EjectHold, so quorum coming back after
// a long gap does not eject on the first evaluation.
func TestEjectionQuorumPausesHold(t *testing.T) {
	reg, urls := ejectorRegistry(t, 4)
	slow := grabBackend(t, reg, urls[3])
	// Only the first two fast backends and the slow one are measured.
	fresh := grabBackend(t, reg, urls[2])
	reg.mu.Lock()
	fresh.lats.Reset()
	reg.mu.Unlock()

	now := time.Now()
	reg.evaluateEjections(now) // starts the slow backend's hold timer
	if err := reg.Drain(urls[0]); err != nil {
		t.Fatal(err)
	}
	reg.evaluateEjections(now.Add(100 * time.Millisecond)) // quorum lost
	for i := 0; i < 8; i++ {
		reg.observeSuccess(fresh, 5*time.Millisecond, true)
	}
	reg.evaluateEjections(now.Add(10 * time.Second)) // quorum back
	if slow.ejected {
		t.Fatal("ejected on the first evaluation after a long loss of quorum")
	}
	reg.evaluateEjections(now.Add(10*time.Second + 300*time.Millisecond))
	if !slow.ejected {
		t.Fatal("gray-slow backend not ejected after a full hold with quorum")
	}
}

// TestIntegrityFailureFailsOver pins a backend that stamps a wrong
// checksum on every reply: the frontend must refuse its bytes, book the
// integrity failure, and serve the request from the honest backend.
func TestIntegrityFailureFailsOver(t *testing.T) {
	leakCheck(t)
	bad := newFakeBackend(t)
	good := newFakeBackend(t)
	bad.setInfer(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(server.ChecksumHeader, "crc32c=deadbeef")
		io.WriteString(w, `{"model":"forged"}`)
	})
	badURL := bad.ts.URL
	_, fts := newTestFrontend(t, Config{
		Backends:    []string{bad.ts.URL, good.ts.URL},
		ProbeEvery:  20 * time.Millisecond,
		MaxAttempts: 3,
		HedgeBudget: 0, // isolate the failover path
		Policy:      pinFirst{url: &badURL},
	})

	resp, data := postFleetInfer(t, fts.URL, server.InferRequest{Model: "lenet5"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("infer: %d (%s)", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Mulayer-Backend"); got != good.ts.URL {
		t.Fatalf("served by %s, want failover to %s", got, good.ts.URL)
	}
	if strings.Contains(string(data), "forged") {
		t.Fatal("corrupt reply reached the client")
	}

	mresp, err := http.Get(fts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mdata), `mulayer_frontend_integrity_failures_total{backend="`+bad.ts.URL+`",reason="checksum"} 1`) {
		t.Errorf("integrity failure not counted:\n%s", mdata)
	}
}
