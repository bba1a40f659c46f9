package frontend

import (
	"mulayer/internal/faults"
	"mulayer/internal/server/metrics"
)

// fleetMetrics are the mulayer_frontend_* metric families.
type fleetMetrics struct {
	reg *metrics.Registry

	// requests by backend and status-code class ("2xx", "5xx", ...).
	requests *metrics.CounterVec
	// rejected requests by reason (inflight_full, no_backend, timeout).
	rejected *metrics.CounterVec
	// routing decisions by the placement policy's reason
	// (least_load, affinity, affinity_spill).
	routing *metrics.CounterVec
	// transportErrors by backend: dial/read failures proxying to it.
	transportErrors *metrics.CounterVec
	// retries: transport-failure failovers onto the next-ranked backend.
	retries *metrics.Counter
	// hedges by result (won, lost, failed).
	hedges *metrics.CounterVec
	// hedgesSkipped by reason (budget, no_backend, disabled).
	hedgesSkipped *metrics.CounterVec
	// health transitions by backend and event (added, drained, undrained,
	// removed, quarantined, probing, recovered, ejected, readmitted).
	health *metrics.CounterVec
	// probeFailures by backend.
	probeFailures *metrics.CounterVec
	// ejections by backend: latency-outlier ejections.
	ejections *metrics.CounterVec
	// integrityFailures by backend and reason (checksum, length):
	// replies the frontend refused to deliver.
	integrityFailures *metrics.CounterVec
	// latency of proxied requests end to end, by model.
	latency *metrics.HistogramVec
	// inflight proxied requests.
	inflight *metrics.Gauge
}

func newFleetMetrics(healthyCount, ejectedCount func() float64) *fleetMetrics {
	reg := metrics.NewRegistry()
	m := &fleetMetrics{
		reg: reg,
		requests: metrics.NewCounterVec(reg, "mulayer_frontend_requests_total",
			"Proxied /v1/infer requests by backend and status class.",
			"backend", "code"),
		rejected: metrics.NewCounterVec(reg, "mulayer_frontend_rejected_total",
			"Requests rejected by the frontend itself, by reason.",
			"reason"),
		routing: metrics.NewCounterVec(reg, "mulayer_frontend_routing_total",
			"Primary routing decisions by placement reason.",
			"reason"),
		transportErrors: metrics.NewCounterVec(reg, "mulayer_frontend_transport_errors_total",
			"Transport failures (dial/read) proxying to a backend.",
			"backend"),
		hedges: metrics.NewCounterVec(reg, "mulayer_frontend_hedges_total",
			"Hedged attempts launched, by outcome.",
			"result"),
		hedgesSkipped: metrics.NewCounterVec(reg, "mulayer_frontend_hedges_skipped_total",
			"Hedge opportunities not taken, by reason.",
			"reason"),
		health: metrics.NewCounterVec(reg, "mulayer_frontend_backend_health_total",
			"Backend registry health transitions by backend and event.",
			"backend", "event"),
		probeFailures: metrics.NewCounterVec(reg, "mulayer_frontend_probe_failures_total",
			"Failed health probes by backend.",
			"backend"),
		ejections: metrics.NewCounterVec(reg, "mulayer_frontend_ejections_total",
			"Latency-outlier ejections by backend (gray-slow replicas removed from rotation).",
			"backend"),
		integrityFailures: metrics.NewCounterVec(reg, "mulayer_frontend_integrity_failures_total",
			"Backend replies failing end-to-end integrity verification, by backend and reason.",
			"backend", "reason"),
		latency: metrics.NewHistogramVec(reg, "mulayer_frontend_latency_seconds",
			"End-to-end proxied request latency (hedges and failovers included).",
			metrics.LatencyBuckets(), "model"),
	}
	retries := metrics.NewCounterVec(reg, "mulayer_frontend_retries_total",
		"Transport-failure failovers onto the next-ranked backend.")
	m.retries = retries.With()
	inflight := metrics.NewGaugeVec(reg, "mulayer_frontend_inflight",
		"Proxied requests currently in flight.")
	m.inflight = inflight.With()
	metrics.NewGaugeFunc(reg, "mulayer_frontend_backends_healthy",
		"Backends currently routable (healthy and not draining).",
		healthyCount)
	metrics.NewGaugeFunc(reg, "mulayer_frontend_backends_ejected",
		"Backends currently ejected by the latency outlier ejector.",
		ejectedCount)
	return m
}

// countNetFaults exports the injected network faults of t, the
// -net-faults transport, as mulayer_net_faults_injected_total{kind}: the
// counts t keeps, read at scrape time, so the proxy path does no work
// for them. SetConfig and Clear drop a target's counts, which a scraper
// sees as a counter reset.
func (m *fleetMetrics) countNetFaults(t *faults.Transport) {
	kinds := make([]string, len(faults.NetKinds))
	for i, k := range faults.NetKinds {
		kinds[i] = k.String()
	}
	metrics.NewCounterFunc(m.reg, "mulayer_net_faults_injected_total",
		"Network faults injected between the frontend and its backends (-net-faults), by kind.",
		"kind", kinds, func() []int64 {
			total := t.TotalStats()
			n := make([]int64, len(faults.NetKinds))
			for i, k := range faults.NetKinds {
				n[i] = total.Kinds[k]
			}
			return n
		})
}
