package partition

import (
	"testing"

	"mulayer/internal/device"
	"mulayer/internal/graph"
)

func TestPlanSummary(t *testing.T) {
	plan := &Plan{Steps: []Step{
		{Layer: &LayerStep{Node: 1, P: 0.25}},
		{Layer: &LayerStep{Node: 2, P: 0.75}},
		{Layer: &LayerStep{Node: 3, P: 1}},
		{Layer: &LayerStep{Node: 4, P: 0}},
		{Layer: &LayerStep{Node: 5, P: 0.25, PNPU: 0.25}},
		{Branch: &BranchStep{
			Group:  graph.BranchGroup{Branches: [][]graph.NodeID{{6}, {7}, {8}}},
			Assign: []device.Type{device.CPU, device.GPU, device.GPU},
		}},
	}}
	s := plan.Summary()
	if s.Steps != 6 || s.LayerSteps != 5 || s.BranchSteps != 1 {
		t.Fatalf("step counts wrong: %+v", s)
	}
	if s.SplitLayers != 3 {
		t.Fatalf("SplitLayers = %d, want 3", s.SplitLayers)
	}
	want := (0.25 + 0.75 + 0.25) / 3
	if diff := s.MeanP - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("MeanP = %v, want %v", s.MeanP, want)
	}
	if s.Branches["CPU"] != 1 || s.Branches["GPU"] != 2 {
		t.Fatalf("Branches = %v", s.Branches)
	}
	if got := s.BranchMap(); got != "CPU:1 GPU:2" {
		t.Fatalf("BranchMap = %q", got)
	}
}

func TestPlanSummaryEmpty(t *testing.T) {
	s := (&Plan{}).Summary()
	if s.Steps != 0 || s.MeanP != 0 || s.BranchMap() != "" {
		t.Fatalf("empty plan summary wrong: %+v", s)
	}
}
