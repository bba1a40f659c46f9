package faults

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// get issues one GET through the transport and returns status, body,
// and the declared Content-Length.
func get(t *testing.T, tr http.RoundTripper, url string) (int, []byte, int64, error) {
	t.Helper()
	c := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, resp.ContentLength, err
	}
	return resp.StatusCode, body, resp.ContentLength, nil
}

const echoBody = `{"model":"lenet5","latency_us":123.4}`

func echoServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, echoBody)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestPassThroughWithoutConfig(t *testing.T) {
	ts := echoServer(t)
	tr := NewTransport(nil, nil)
	code, body, _, err := get(t, tr, ts.URL)
	if err != nil || code != http.StatusOK || string(body) != echoBody {
		t.Fatalf("passthrough: %d %q %v", code, body, err)
	}
	if n := tr.TotalStats().Events; n != 0 {
		t.Fatalf("untargeted request counted: %d", n)
	}
}

func TestResetAndBudget(t *testing.T) {
	ts := echoServer(t)
	host := strings.TrimPrefix(ts.URL, "http://")
	tr := NewTransport(map[string]NetConfig{
		host: {ResetRate: 1, MaxFaults: 2, Seed: 7},
	}, nil)
	for i := 0; i < 2; i++ {
		if _, _, _, err := get(t, tr, ts.URL); err == nil {
			t.Fatalf("request %d survived a certain reset", i)
		}
	}
	// Budget exhausted: the path is clean again.
	code, body, _, err := get(t, tr, ts.URL)
	if err != nil || code != http.StatusOK || string(body) != echoBody {
		t.Fatalf("post-budget request: %d %q %v", code, body, err)
	}
	st := tr.Stats()[host]
	if st.Kinds[Reset] != 2 || st.Events != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDropReachesBackend(t *testing.T) {
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		io.WriteString(w, echoBody)
	}))
	t.Cleanup(ts.Close)
	host := strings.TrimPrefix(ts.URL, "http://")
	tr := NewTransport(map[string]NetConfig{host: {DropRate: 1, MaxFaults: 1}}, nil)
	if _, _, _, err := get(t, tr, ts.URL); err == nil {
		t.Fatal("dropped response delivered")
	}
	if hits != 1 {
		t.Fatalf("drop did not reach the backend: %d hits", hits)
	}
}

func TestTruncateKeepsContentLength(t *testing.T) {
	ts := echoServer(t)
	host := strings.TrimPrefix(ts.URL, "http://")
	tr := NewTransport(map[string]NetConfig{host: {TruncateRate: 1, MaxFaults: 1}}, nil)
	code, body, clen, err := get(t, tr, ts.URL)
	if err != nil || code != http.StatusOK {
		t.Fatalf("truncated request failed outright: %d %v", code, err)
	}
	if len(body) >= len(echoBody) {
		t.Fatalf("body not truncated: %d bytes", len(body))
	}
	if clen != int64(len(echoBody)) {
		t.Fatalf("Content-Length rewritten to %d, want %d", clen, len(echoBody))
	}
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	ts := echoServer(t)
	host := strings.TrimPrefix(ts.URL, "http://")
	tr := NewTransport(map[string]NetConfig{host: {CorruptRate: 1, MaxFaults: 1}}, nil)
	code, body, _, err := get(t, tr, ts.URL)
	if err != nil || code != http.StatusOK {
		t.Fatalf("corrupted request failed outright: %d %v", code, err)
	}
	if len(body) != len(echoBody) {
		t.Fatalf("corrupt changed length: %d vs %d", len(body), len(echoBody))
	}
	diffBits := 0
	for i := range body {
		for b := body[i] ^ echoBody[i]; b != 0; b &= b - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("%d bits flipped, want exactly 1", diffBits)
	}
}

func TestLatencyDelaysAndHonorsContext(t *testing.T) {
	ts := echoServer(t)
	host := strings.TrimPrefix(ts.URL, "http://")
	tr := NewTransport(map[string]NetConfig{
		host: {LatencyRate: 1, Latency: 80 * time.Millisecond},
	}, nil)
	start := time.Now()
	code, _, _, err := get(t, tr, ts.URL)
	if err != nil || code != http.StatusOK {
		t.Fatalf("delayed request: %d %v", code, err)
	}
	if lat := time.Since(start); lat < 80*time.Millisecond {
		t.Fatalf("latency not injected: %v", lat)
	}

	// A cancelled context cuts the injected delay short.
	tr2 := NewTransport(map[string]NetConfig{
		host: {LatencyRate: 1, Latency: 10 * time.Second},
	}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	start = time.Now()
	_, err = (&http.Client{Transport: tr2}).Do(req)
	if err == nil {
		t.Fatal("cancelled delayed request succeeded")
	}
	if lat := time.Since(start); lat > 5*time.Second {
		t.Fatalf("injected delay ignored cancellation: %v", lat)
	}
}

func TestDialTimeoutHangsThenFails(t *testing.T) {
	ts := echoServer(t)
	host := strings.TrimPrefix(ts.URL, "http://")
	tr := NewTransport(map[string]NetConfig{
		host: {DialTimeoutRate: 1, DialHang: 60 * time.Millisecond, MaxFaults: 1},
	}, nil)
	start := time.Now()
	_, _, _, err := get(t, tr, ts.URL)
	if err == nil {
		t.Fatal("black-holed dial succeeded")
	}
	if lat := time.Since(start); lat < 60*time.Millisecond {
		t.Fatalf("dial failed before the hang elapsed: %v", lat)
	}
}

func TestNetDeterministicStreams(t *testing.T) {
	cfg := NetConfig{ResetRate: 0.3, DropRate: 0.2, CorruptRate: 0.1, Seed: 42, Target: "a:1"}
	seq := func() []Kind {
		in := newNetInjector(cfg)
		out := make([]Kind, 32)
		for i := range out {
			out[i] = in.decide().kind
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// A different target salt yields a different stream.
	cfg2 := cfg
	cfg2.Target = "b:2"
	in2 := newNetInjector(cfg2)
	same := true
	for i := 0; i < 32; i++ {
		if in2.decide().kind != a[i] {
			same = false
		}
	}
	if same {
		t.Fatal("independent targets drew identical streams")
	}
}

func TestSetConfigAndClear(t *testing.T) {
	ts := echoServer(t)
	host := strings.TrimPrefix(ts.URL, "http://")
	tr := NewTransport(nil, nil)
	if err := tr.SetConfig(host, NetConfig{ResetRate: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := get(t, tr, ts.URL); err == nil {
		t.Fatal("SetConfig fault not applied")
	}
	tr.Clear(host)
	if code, _, _, err := get(t, tr, ts.URL); err != nil || code != http.StatusOK {
		t.Fatalf("cleared target still faulted: %d %v", code, err)
	}
	if err := tr.SetConfig(host, NetConfig{ResetRate: 2}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestDefaultTargetFallback(t *testing.T) {
	ts := echoServer(t)
	tr := NewTransport(map[string]NetConfig{"": {ResetRate: 1, MaxFaults: 1}}, nil)
	if _, _, _, err := get(t, tr, ts.URL); err == nil {
		t.Fatal("default config not applied to untargeted host")
	}
}

func TestParseNetSpec(t *testing.T) {
	cfgs, err := ParseNetSpec("drop=0.02,seed=9;target=http://10.0.0.1:8081/,lat=1,latms=250,max=5")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 {
		t.Fatalf("%d configs", len(cfgs))
	}
	if c := cfgs[""]; c.DropRate != 0.02 || c.Seed != 9 {
		t.Fatalf("default config %+v", c)
	}
	c, ok := cfgs["10.0.0.1:8081"]
	if !ok || c.LatencyRate != 1 || c.Latency != 250*time.Millisecond || c.MaxFaults != 5 {
		t.Fatalf("targeted config %+v (ok=%v)", c, ok)
	}

	if m, err := ParseNetSpec("  "); err != nil || len(m) != 0 {
		t.Fatalf("empty spec: %v %v", m, err)
	}
	for _, bad := range []string{
		"nope=1",
		"reset=1.5",
		"reset=0.6,drop=0.6",
		"lat=NaN",
		"latms=-1",
		"max=-2",
		"target=",
		"drop=0.1;drop=0.2",
		"target=a:1,reset=1;target=a:1,drop=1",
		"reset",
		"drop=0.1,drop=0.2", // duplicate key
		"seed=1,seed=1",     // duplicate key
		"drop=",             // empty value
		"seed=",             // empty value
		"latms=",            // empty value
		"target=http://",    // empty once the scheme is stripped
	} {
		if _, err := ParseNetSpec(bad); err == nil {
			t.Errorf("spec %q parsed", bad)
		}
	}
	// Blank fields and blocks and surrounding whitespace are tolerated.
	cfgs, err = ParseNetSpec(" ; drop = 0.1 , , max=3 ;; ")
	if err != nil || len(cfgs) != 1 || cfgs[""].DropRate != 0.1 || cfgs[""].MaxFaults != 3 {
		t.Fatalf("lenient spec: %v %v", cfgs, err)
	}
}
