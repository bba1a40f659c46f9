package core

import (
	"mulayer/internal/exec"
	"mulayer/internal/models"
	"mulayer/internal/partition"
)

// RunBatch plans and executes one fused micro-batch: every item's rows are
// fused into a single batched kernel per layer, so the batch pays one
// kernel launch and one weight read per layer regardless of the row count.
// Per-item deadlines ride on each item's Ctx — a cancelled item is dropped
// from the batch (its result carries the context error) without aborting
// its batchmates. A one-item, one-row batch is equivalent to RunContext.
func (rt *Runtime) RunBatch(m *models.Model, items []exec.FusedItem, rc RunConfig) (*exec.FusedResult, error) {
	return rt.RunBatchOpts(m, items, rc, ExecOpts{})
}

// RunBatchOpts is RunBatch with execution hooks attached — the serving
// path, which runs the memoized plan of (m, rc) on its memoized layout.
func (rt *Runtime) RunBatchOpts(m *models.Model, items []exec.FusedItem, rc RunConfig, opts ExecOpts) (*exec.FusedResult, error) {
	p, _, err := rt.prepare(m, rc)
	if err != nil {
		return nil, err
	}
	return rt.runLayout(m, p.pipe, p.layout, items, rc, opts)
}

// ExecOpts carries per-execution hooks that must not influence planning —
// they live outside RunConfig so plan memo keys (which embed RunConfig)
// stay comparable and hook-free.
type ExecOpts struct {
	// Faults, when non-nil, is consulted before every scheduled kernel; see
	// exec.Config.FaultHook. The serving layer installs a fault injector
	// here; cost estimation always runs with a nil hook.
	Faults exec.FaultHook
	// Trace, when non-nil, observes every booked kernel; see
	// exec.Config.TraceHook. The serving layer installs a per-batch kernel
	// recorder here when a batch member is traced; cost estimation always
	// runs with a nil hook.
	Trace exec.TraceHook
	// WatchdogFactor, when > 0, arms the executor's kernel stall watchdog;
	// see exec.Config.WatchdogFactor. Like the hooks it must not influence
	// planning, so it rides here rather than on RunConfig.
	WatchdogFactor float64
}

// RunBatchPlan is RunBatch under a previously built plan, which must
// cover m's graph and match rc's pipeline (use PlanCached or Plan with the
// same RunConfig). The memoized plan of (m, rc) runs on its memoized
// layout; any other plan gets a layout built for this call.
func (rt *Runtime) RunBatchPlan(m *models.Model, plan *partition.Plan, items []exec.FusedItem, rc RunConfig) (*exec.FusedResult, error) {
	p, _, err := rt.prepare(m, rc)
	if err != nil {
		return nil, err
	}
	lay := p.layout
	if plan != p.plan {
		if lay, err = exec.NewLayout(m.Graph, plan, p.pipe.Storage); err != nil {
			return nil, err
		}
	}
	return rt.runLayout(m, p.pipe, lay, items, rc, ExecOpts{})
}

// runLayout runs a fused batch over lay, a layout of one of m's plans
// for rc, on pipeline pipe.
func (rt *Runtime) runLayout(m *models.Model, pipe partition.Pipeline, lay *exec.Layout, items []exec.FusedItem, rc RunConfig, opts ExecOpts) (*exec.FusedResult, error) {
	cfg, err := rt.execConfig(m, rc, pipe, opts)
	if err != nil {
		return nil, err
	}
	return exec.RunLayout(lay, items, cfg)
}
