// Command mulayer-load drives a running mulayer-serve at a configurable
// offered load and prints achieved throughput and wall-latency
// percentiles — the reproducible benchmark for the serving path (see
// docs/serving.md for the saturation experiment it supports).
//
// It is an open-loop generator: requests fire on a fixed interval derived
// from -qps regardless of how fast replies come back, so queueing at the
// server shows up as latency rather than reduced offered load.
//
// Usage:
//
//	mulayer-load -addr http://localhost:8080 -model googlenet -qps 50 -duration 10s
//	mulayer-load -model googlenet,squeezenet -mech mulayer -qps 200 -duration 30s -timeout 1s
//	mulayer-load -model lenet5 -qps 2000 -batch 4        # batched traffic: 4 rows per request
//	mulayer-load -addr :8081,:8082,:8083 -qps 300        # fleet: round-robin targets
//	mulayer-load -json summary.json                      # machine-readable summary
//
// With -batch N each request carries N input rows, exercising the
// server's fused micro-batching; goodput is then reported in rows/s as
// well as requests/s.
//
// With -priority high,low requests round-robin through priority classes
// and the summary adds a per-class table (sent, 2xx, shed, availability,
// latency percentiles) — the view of the server's brownout ladder
// shedding from the bottom class up. -min-availability F exits non-zero
// when the top class present falls below F (the overload-smoke gate).
//
// With -addr A,B,C requests round-robin across several targets (backends
// directly, or frontends) and the summary adds a per-target table with
// each target's availability and latency — the view of fleet balance.
// With -json FILE the whole summary is also written as one JSON object.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"mulayer/internal/server"
)

type sample struct {
	wall time.Duration
	// queueWait is the server-reported admission-to-dispatch wait (200s
	// only) — printed as the same percentile summary /statusz serves.
	queueWait time.Duration
	code      int
	err       bool
	priority  string
	target    string
}

func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mulayer-load: ")
	addr := flag.String("addr", "http://localhost:8080", "server base URL(s), comma-separated (round-robin)")
	modelsFlag := flag.String("model", "googlenet", "model name(s), comma-separated (round-robin)")
	mech := flag.String("mech", "mulayer", "execution mechanism")
	socClass := flag.String("soc", "", "pin requests to one SoC class (empty = any)")
	qps := flag.Float64("qps", 20, "offered load in requests per second")
	duration := flag.Duration("duration", 10*time.Second, "run length")
	timeout := flag.Duration("timeout", 2*time.Second, "per-request deadline")
	batch := flag.Int("batch", 1, "input rows per request (exercises server-side micro-batching)")
	prioFlag := flag.String("priority", "", "priority class(es), comma-separated (round-robin): high, normal, low (empty = server default)")
	minAvail := flag.Float64("min-availability", 0, "exit non-zero when the top priority class's 2xx availability falls below this fraction (0 = no gate)")
	jsonOut := flag.String("json", "", "also write the run summary as JSON to this file (empty = off)")
	flag.Parse()

	if *qps <= 0 {
		log.Fatal("-qps must be positive")
	}
	if *batch < 1 {
		log.Fatal("-batch must be at least 1")
	}
	if *minAvail < 0 || *minAvail > 1 {
		log.Fatal("-min-availability must be in [0, 1]")
	}
	priorities := []string{""}
	if *prioFlag != "" {
		priorities = strings.Split(*prioFlag, ",")
		for _, p := range priorities {
			if _, err := server.ParsePriority(p); err != nil {
				log.Fatal(err)
			}
		}
	}
	var targets []string
	for _, a := range strings.Split(*addr, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		targets = append(targets, a)
	}
	if len(targets) == 0 {
		log.Fatal("-addr names no targets")
	}
	models := strings.Split(*modelsFlag, ",")
	client := &http.Client{Timeout: *timeout + time.Second}
	interval := time.Duration(float64(time.Second) / *qps)

	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	fire := func(model, prio, target string) {
		defer wg.Done()
		body, _ := json.Marshal(server.InferRequest{
			Model:     model,
			Mechanism: *mech,
			SoC:       *socClass,
			TimeoutMS: int(*timeout / time.Millisecond),
			Batch:     *batch,
			Priority:  prio,
		})
		start := time.Now()
		resp, err := client.Post(target+"/v1/infer", "application/json", bytes.NewReader(body))
		s := sample{wall: time.Since(start), priority: prio, target: target}
		if err != nil {
			s.err = true
		} else {
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			s.code = resp.StatusCode
			if s.code == http.StatusOK {
				var rep struct {
					QueueWaitUS float64 `json:"queue_wait_us"`
				}
				if json.Unmarshal(data, &rep) == nil {
					s.queueWait = time.Duration(rep.QueueWaitUS * float64(time.Microsecond))
				}
			}
		}
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}

	log.Printf("offering %.1f qps of %s for %v against %s", *qps, *modelsFlag, *duration, strings.Join(targets, ", "))
	start := time.Now()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var sent int
	for time.Since(start) < *duration {
		<-tick.C
		wg.Add(1)
		go fire(models[sent%len(models)], priorities[sent%len(priorities)], targets[sent%len(targets)])
		sent++
	}
	wg.Wait()
	elapsed := time.Since(start)

	byCode := map[int]int{}
	var netErrs int
	var okLat, okWait []time.Duration
	for _, s := range samples {
		if s.err {
			netErrs++
			continue
		}
		byCode[s.code]++
		if s.code == http.StatusOK {
			okLat = append(okLat, s.wall)
			okWait = append(okWait, s.queueWait)
		}
	}
	sort.Slice(okLat, func(i, j int) bool { return okLat[i] < okLat[j] })
	sort.Slice(okWait, func(i, j int) bool { return okWait[i] < okWait[j] })

	fmt.Printf("sent          %d in %v (offered %.1f qps)\n", sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
	fmt.Printf("completed 2xx %d (%.1f qps goodput, %.1f rows/s)\n",
		byCode[200], float64(byCode[200])/elapsed.Seconds(), float64(byCode[200]**batch)/elapsed.Seconds())
	codes := make([]int, 0, len(byCode))
	for c := range byCode {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		if c != 200 {
			fmt.Printf("status %d    %d\n", c, byCode[c])
		}
	}
	if netErrs > 0 {
		fmt.Printf("transport err %d\n", netErrs)
	}
	if len(okLat) > 0 {
		// Same p50/p95/p99 summary the server exposes in /statusz, so a
		// load run and a status scrape line up.
		fmt.Printf("latency    p50=%v p95=%v p99=%v max=%v\n",
			percentile(okLat, 0.50).Round(time.Microsecond),
			percentile(okLat, 0.95).Round(time.Microsecond),
			percentile(okLat, 0.99).Round(time.Microsecond),
			okLat[len(okLat)-1].Round(time.Microsecond))
		fmt.Printf("queue-wait p50=%v p95=%v p99=%v max=%v\n",
			percentile(okWait, 0.50).Round(time.Microsecond),
			percentile(okWait, 0.95).Round(time.Microsecond),
			percentile(okWait, 0.99).Round(time.Microsecond),
			okWait[len(okWait)-1].Round(time.Microsecond))
	}

	// Per-priority-class breakdown: under the server's brownout ladder the
	// shed rate should climb from the bottom class up while the top class
	// keeps its availability.
	type classStats struct {
		sent, ok, shed int
		lat            []time.Duration
	}
	byClass := map[string]*classStats{}
	for _, s := range samples {
		cs := byClass[s.priority]
		if cs == nil {
			cs = &classStats{}
			byClass[s.priority] = cs
		}
		cs.sent++
		switch {
		case s.err:
		case s.code == http.StatusOK:
			cs.ok++
			cs.lat = append(cs.lat, s.wall)
		case s.code == http.StatusServiceUnavailable:
			cs.shed++
		}
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool {
		a, _ := server.ParsePriority(classes[i])
		b, _ := server.ParsePriority(classes[j])
		return a < b
	})
	if len(classes) > 1 || classes[0] != "" {
		fmt.Printf("%-10s %7s %7s %7s %7s %10s %10s %10s\n",
			"priority", "sent", "2xx", "shed", "avail", "p50", "p95", "p99")
		for _, c := range classes {
			cs := byClass[c]
			sort.Slice(cs.lat, func(i, j int) bool { return cs.lat[i] < cs.lat[j] })
			label := c
			if label == "" {
				label = "(default)"
			}
			fmt.Printf("%-10s %7d %7d %7d %6.1f%% %10v %10v %10v\n",
				label, cs.sent, cs.ok, cs.shed,
				100*float64(cs.ok)/float64(cs.sent),
				percentile(cs.lat, 0.50).Round(time.Microsecond),
				percentile(cs.lat, 0.95).Round(time.Microsecond),
				percentile(cs.lat, 0.99).Round(time.Microsecond))
		}
	}
	// Per-target breakdown: with several -addr targets this is the view
	// of fleet balance — each target's share, availability, and latency.
	type targetStats struct {
		sent, ok, errs int
		lat            []time.Duration
	}
	byTarget := map[string]*targetStats{}
	for _, s := range samples {
		ts := byTarget[s.target]
		if ts == nil {
			ts = &targetStats{}
			byTarget[s.target] = ts
		}
		ts.sent++
		switch {
		case s.err:
			ts.errs++
		case s.code == http.StatusOK:
			ts.ok++
			ts.lat = append(ts.lat, s.wall)
		}
	}
	targetNames := make([]string, 0, len(byTarget))
	for tgt := range byTarget {
		targetNames = append(targetNames, tgt)
	}
	sort.Strings(targetNames)
	if len(targetNames) > 1 {
		fmt.Printf("%-28s %7s %7s %7s %7s %10s %10s\n",
			"target", "sent", "2xx", "err", "avail", "p50", "p95")
		for _, tgt := range targetNames {
			ts := byTarget[tgt]
			sort.Slice(ts.lat, func(i, j int) bool { return ts.lat[i] < ts.lat[j] })
			fmt.Printf("%-28s %7d %7d %7d %6.1f%% %10v %10v\n",
				tgt, ts.sent, ts.ok, ts.errs,
				100*float64(ts.ok)/float64(ts.sent),
				percentile(ts.lat, 0.50).Round(time.Microsecond),
				percentile(ts.lat, 0.95).Round(time.Microsecond))
		}
	}

	if *jsonOut != "" {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		type latSummary struct {
			P50MS float64 `json:"p50_ms"`
			P95MS float64 `json:"p95_ms"`
			P99MS float64 `json:"p99_ms"`
			MaxMS float64 `json:"max_ms"`
		}
		latOf := func(sorted []time.Duration) latSummary {
			out := latSummary{
				P50MS: ms(percentile(sorted, 0.50)),
				P95MS: ms(percentile(sorted, 0.95)),
				P99MS: ms(percentile(sorted, 0.99)),
			}
			if len(sorted) > 0 {
				out.MaxMS = ms(sorted[len(sorted)-1])
			}
			return out
		}
		type targetSummary struct {
			Target       string     `json:"target"`
			Sent         int        `json:"sent"`
			OK           int        `json:"ok"`
			TransportErr int        `json:"transport_errors"`
			Availability float64    `json:"availability"`
			Latency      latSummary `json:"latency"`
		}
		summary := struct {
			Targets      []string        `json:"targets"`
			Models       string          `json:"models"`
			OfferedQPS   float64         `json:"offered_qps"`
			DurationSec  float64         `json:"duration_sec"`
			Batch        int             `json:"batch"`
			Sent         int             `json:"sent"`
			OK           int             `json:"ok"`
			TransportErr int             `json:"transport_errors"`
			ByCode       map[string]int  `json:"by_code"`
			GoodputQPS   float64         `json:"goodput_qps"`
			GoodputRows  float64         `json:"goodput_rows_per_sec"`
			Availability float64         `json:"availability"`
			Latency      latSummary      `json:"latency"`
			QueueWait    latSummary      `json:"queue_wait"`
			PerTarget    []targetSummary `json:"per_target,omitempty"`
		}{
			Targets:      targets,
			Models:       *modelsFlag,
			OfferedQPS:   *qps,
			DurationSec:  elapsed.Seconds(),
			Batch:        *batch,
			Sent:         sent,
			OK:           byCode[200],
			TransportErr: netErrs,
			ByCode:       map[string]int{},
			GoodputQPS:   float64(byCode[200]) / elapsed.Seconds(),
			GoodputRows:  float64(byCode[200]**batch) / elapsed.Seconds(),
			Availability: float64(byCode[200]) / float64(max(sent, 1)),
			Latency:      latOf(okLat),
			QueueWait:    latOf(okWait),
		}
		for c, n := range byCode {
			summary.ByCode[fmt.Sprint(c)] = n
		}
		if len(targetNames) > 1 {
			for _, tgt := range targetNames {
				ts := byTarget[tgt]
				summary.PerTarget = append(summary.PerTarget, targetSummary{
					Target:       tgt,
					Sent:         ts.sent,
					OK:           ts.ok,
					TransportErr: ts.errs,
					Availability: float64(ts.ok) / float64(max(ts.sent, 1)),
					Latency:      latOf(ts.lat),
				})
			}
		}
		data, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			log.Fatalf("-json: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("-json: %v", err)
		}
		log.Printf("summary written to %s", *jsonOut)
	}

	if *minAvail > 0 && len(classes) > 0 {
		top := byClass[classes[0]]
		avail := float64(top.ok) / float64(top.sent)
		if avail < *minAvail {
			log.Fatalf("top priority class %q availability %.3f below the -min-availability floor %.3f",
				classes[0], avail, *minAvail)
		}
		log.Printf("top priority class %q availability %.3f meets the %.3f floor", classes[0], avail, *minAvail)
	}
}
