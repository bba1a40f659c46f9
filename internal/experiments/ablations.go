package experiments

import (
	"fmt"

	"mulayer/internal/exec"
	"mulayer/internal/models"
	"mulayer/internal/partition"
)

// The ablations quantify the design choices DESIGN.md §6 calls out. They
// have no direct figure in the paper, but §6 motivates each one: the
// coarse split-ratio grid, asynchronous GPU command issue, and zero-copy
// shared memory.

// AblationSplitGranularity compares the paper's {0.25, 0.5, 0.75} grid
// against a coarse {0.5} grid and a fine 0.05-step grid on the high-end
// SoC.
func (e *Env) AblationSplitGranularity() (*Table, error) {
	s := e.SoCs[0]
	pred := e.Pred(s)
	grids := []struct {
		name string
		grid []float64
	}{
		{"{0.5}", []float64{0.5}},
		{"{0.25,0.5,0.75} (paper)", partition.DefaultGrid},
		{"fine (0.05 steps)", fineGrid()},
	}
	t := &Table{
		ID:     "Ablation A1",
		Title:  "Split-ratio grid granularity (uLayer latency, high-end SoC)",
		Header: []string{"NN", grids[0].name, grids[1].name, grids[2].name},
	}
	for _, m := range e.Specs() {
		row := []string{m.Name}
		for _, g := range grids {
			o := partition.MuLayer(s, pred)
			o.Grid = g.grid
			r, err := e.RunMechanism(m, s, o)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(r.Latency)+"ms")
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "the paper's 3-point grid captures nearly all of the fine grid's benefit")
	return t, nil
}

func fineGrid() []float64 {
	var g []float64
	for p := 0.05; p < 0.999; p += 0.05 {
		g = append(g, float64(int(float64(p*100)+0.5))/100)
	}
	return g
}

// AblationIssueAndMemory compares μLayer with and without asynchronous GPU
// command issue and zero-copy shared memory (§6's two implementation
// optimizations).
func (e *Env) AblationIssueAndMemory() (*Table, error) {
	t := &Table{
		ID:     "Ablation A2",
		Title:  "Implementation optimizations: async GPU issue and zero-copy memory (uLayer latency)",
		Header: []string{"NN", "SoC", "full(ms)", "blocking issue", "copy-based sync", "both off"},
	}
	for _, s := range e.SoCs {
		pred := e.Pred(s)
		for _, m := range e.Specs() {
			o := partition.MuLayer(s, pred)
			plan, err := partition.Build(m.Graph, o)
			if err != nil {
				return nil, err
			}
			run := func(async, zero bool) float64 {
				res, err := exec.Run(m.Graph, plan, nil, exec.Config{
					SoC: s, Pipe: o.Pipe, AsyncIssue: async, ZeroCopy: zero,
				})
				if err != nil {
					panic(err)
				}
				return float64(res.Report.Latency)
			}
			full := run(true, true)
			t.Rows = append(t.Rows, []string{
				m.Name, s.Name,
				fmt.Sprintf("%.2f", full/1e6),
				fmt.Sprintf("%.2fx", run(false, true)/full),
				fmt.Sprintf("%.2fx", run(true, false)/full),
				fmt.Sprintf("%.2fx", run(false, false)/full),
			})
		}
	}
	t.Notes = append(t.Notes, "slowdowns relative to the full implementation; both optimizations matter most on branchy, many-kernel NNs")
	return t, nil
}

// AblationBranchDistribution isolates branch distribution on the two
// branch-applicable NNs across both SoCs (complementing Figure 17).
func (e *Env) AblationBranchDistribution() (*Table, error) {
	t := &Table{
		ID:     "Ablation A3",
		Title:  "Branch distribution on branchy NNs (uLayer latency with/without)",
		Header: []string{"NN", "SoC", "without(ms)", "with(ms)", "improvement"},
	}
	for _, s := range e.SoCs {
		pred := e.Pred(s)
		for _, build := range []func(models.Config) (*models.Model, error){models.GoogLeNet, models.SqueezeNetV11} {
			m, err := build(models.Config{})
			if err != nil {
				return nil, err
			}
			without, err := e.RunMechanism(m, s, partition.ChannelDistProcQuant(s, pred))
			if err != nil {
				return nil, err
			}
			with, err := e.RunMechanism(m, s, partition.MuLayer(s, pred))
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				m.Name, s.Name, ms(without.Latency), ms(with.Latency),
				pct(1 - float64(with.Latency)/float64(without.Latency)),
			})
		}
	}
	return t, nil
}
