package partition

import (
	"fmt"
	"strings"

	"mulayer/internal/device"
)

// PlanSummary condenses a plan for observability surfaces: trace span
// attributes, slow-request logs, and /statusz. It answers "what did the
// partitioner decide" without walking the step list.
type PlanSummary struct {
	// Steps is the plan length; LayerSteps/BranchSteps split it by kind.
	Steps       int
	LayerSteps  int
	BranchSteps int
	// SplitLayers counts cooperatively split layers (0 < P < 1 or an NPU
	// share); MeanP is the mean CPU share over those layers (0 when none
	// is split).
	SplitLayers int
	MeanP       float64
	// Branches maps processor names to the number of whole branches
	// assigned to each across every branch group.
	Branches map[string]int
}

// Summary computes the plan's condensed description.
func (p *Plan) Summary() PlanSummary {
	s := PlanSummary{Branches: make(map[string]int)}
	var pSum float64
	for _, st := range p.Steps {
		s.Steps++
		switch {
		case st.Layer != nil:
			s.LayerSteps++
			split := (st.Layer.P > 0 && st.Layer.P < 1) ||
				(st.Layer.PNPU > 0 && st.Layer.PNPU < 1)
			if split {
				s.SplitLayers++
				pSum += st.Layer.P
			}
		case st.Branch != nil:
			s.BranchSteps++
			for _, proc := range st.Branch.Assign {
				s.Branches[proc.String()]++
			}
		}
	}
	if s.SplitLayers > 0 {
		s.MeanP = pSum / float64(s.SplitLayers)
	}
	return s
}

// BranchMap renders the branch assignment compactly ("CPU:2 GPU:3", ""
// when the plan has no branch groups) with processors in a fixed order.
func (s PlanSummary) BranchMap() string {
	var parts []string
	for proc := device.CPU; proc <= device.NPU; proc++ {
		if n := s.Branches[proc.String()]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", proc, n))
		}
	}
	return strings.Join(parts, " ")
}
