package core

import (
	"sync"
	"time"

	"mulayer/internal/exec"
	"mulayer/internal/models"
	"mulayer/internal/partition"
)

// planEntry is one cached key: the runtime's memoized plan and layout,
// plus the predicted fused-batch makespan per row count, filled by
// cost-only simulation of the plan on first demand.
type planEntry struct {
	*prepared
	makespans map[int]time.Duration
}

// PlanCache memoizes predicted batched makespans for one Runtime, keyed by
// (model graph, run config, batch rows), over the Runtime's own plan memo:
// the serving layer pays the partitioner and the latency predictor once
// per key instead of once per request. The mechanism (plus the data type,
// which only the single-processor mechanisms consult) fully determines the
// partitioner's split ratios for a model. RunConfig.Unhealthy — the
// healthy-processor mask — is part of the key: a device running degraded
// caches its p=0/p=1 plans separately from the healthy cooperative plans,
// and a recovery flips back to the healthy entries without invalidation.
// Safe for concurrent use; a miss builds the plan while holding the cache
// lock, serializing concurrent first requests for the same model instead
// of duplicating planner work.
type PlanCache struct {
	rt *Runtime

	mu      sync.Mutex
	entries map[memoKey]*planEntry
	hits    int64
	misses  int64
}

// NewPlanCache returns an empty cache bound to rt.
func NewPlanCache(rt *Runtime) *PlanCache {
	return &PlanCache{rt: rt, entries: make(map[memoKey]*planEntry)}
}

// Runtime returns the cache's runtime.
func (c *PlanCache) Runtime() *Runtime { return c.rt }

// entry returns the cache entry of (m, rc); hit reports whether the plan
// was already memoized, here or in the runtime.
func (c *PlanCache) entry(m *models.Model, rc RunConfig) (e *planEntry, hit bool, err error) {
	key := memoKey{g: m.Graph, rc: cacheRC(rc)}
	if e, ok := c.entries[key]; ok {
		c.hits++
		return e, true, nil
	}
	p, hit, err := c.rt.prepare(m, rc)
	if err != nil {
		return nil, false, err
	}
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	e = &planEntry{prepared: p, makespans: make(map[int]time.Duration)}
	c.entries[key] = e
	return e, hit, nil
}

// Plan returns the cached plan for (m, rc), running the partitioner on the
// first request for the key.
func (c *PlanCache) Plan(m *models.Model, rc RunConfig) (*partition.Plan, error) {
	p, _, err := c.PlanCached(m, rc)
	return p, err
}

// PlanCached is Plan plus a hit indicator: hit is true when the plan was
// already cached (no partitioner run). The tracing layer records it as a
// plan-lookup span attribute.
func (c *PlanCache) PlanCached(m *models.Model, rc RunConfig) (plan *partition.Plan, hit bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, hit, err := c.entry(m, rc)
	if err != nil {
		return nil, false, err
	}
	return e.plan, hit, nil
}

// Estimate returns the predicted makespan of a fused batch of rows rows
// under (m, rc) — the number the scheduler uses for admission control,
// Retry-After, and device pacing. The first request for a (key, rows) pair
// simulates the cached plan cost-only; later requests hit the memo.
func (c *PlanCache) Estimate(m *models.Model, rc RunConfig, rows int) (time.Duration, error) {
	if rows < 1 {
		rows = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, _, err := c.entry(m, rc)
	if err != nil {
		return 0, err
	}
	if d, ok := e.makespans[rows]; ok {
		c.hits++
		return d, nil
	}
	c.misses++
	res, err := c.rt.runLayout(m, e.pipe, e.layout, []exec.FusedItem{{Rows: rows}}, cacheRC(rc), ExecOpts{})
	if err != nil {
		return 0, err
	}
	e.makespans[rows] = res.Report.Latency
	return res.Report.Latency, nil
}

// PlanCacheStats is a snapshot of a cache's effectiveness counters.
type PlanCacheStats struct {
	// Plans is the number of distinct (model, config) plans held.
	Plans int `json:"plans"`
	// Makespans is the number of memoized (plan, rows) cost estimates.
	Makespans int   `json:"makespans"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
}

// Stats returns a snapshot of the cache's counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := PlanCacheStats{Plans: len(c.entries), Hits: c.hits, Misses: c.misses}
	for _, e := range c.entries {
		s.Makespans += len(e.makespans)
	}
	return s
}
