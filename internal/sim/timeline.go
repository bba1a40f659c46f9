// Package sim provides the simulated execution timeline μLayer's executor
// builds while running (or cost-walking) a network: per-processor spans,
// busy-time accounting, makespan, and energy integration. The timeline is
// the substitute for the paper's wall-clock and Monsoon power-monitor
// measurements (DESIGN.md §2).
package sim

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Span is one scheduled interval on a processor.
type Span struct {
	Proc  string
	Label string
	Start time.Duration
	End   time.Duration
	// EnergyPJ is the dynamic energy charged to this span.
	EnergyPJ float64
}

// Timeline accumulates spans and per-processor availability.
type Timeline struct {
	spans []Span
	avail map[string]time.Duration
}

// NewTimeline returns an empty timeline with room for spans spans.
func NewTimeline(spans int) *Timeline {
	return &Timeline{spans: make([]Span, 0, spans), avail: make(map[string]time.Duration)}
}

// Schedule books dur of work on proc, starting no earlier than ready and
// no earlier than the processor's previous span end. It returns the actual
// [start, end) interval.
func (t *Timeline) Schedule(proc, label string, ready, dur time.Duration, energyPJ float64) (start, end time.Duration) {
	if dur < 0 {
		panic("sim: negative duration")
	}
	start = ready
	if a := t.avail[proc]; a > start {
		start = a
	}
	end = start + dur
	t.avail[proc] = end
	t.spans = append(t.spans, Span{Proc: proc, Label: label, Start: start, End: end, EnergyPJ: energyPJ})
	return start, end
}

// Spans returns a copy of the recorded spans in scheduling order.
func (t *Timeline) Spans() []Span { return append([]Span(nil), t.spans...) }

// Makespan returns the end of the last span.
func (t *Timeline) Makespan() time.Duration {
	var m time.Duration
	for _, s := range t.spans {
		if s.End > m {
			m = s.End
		}
	}
	return m
}

// BusyTime returns the total scheduled time on one processor.
func (t *Timeline) BusyTime(proc string) time.Duration {
	var b time.Duration
	for _, s := range t.spans {
		if s.Proc == proc {
			b += s.End - s.Start
		}
	}
	return b
}

// DynamicEnergyPJ sums the dynamic energy over all spans.
func (t *Timeline) DynamicEnergyPJ() float64 {
	var e float64
	for _, s := range t.spans {
		e += s.EnergyPJ
	}
	return e
}

// Validate checks the structural invariants: no two spans on the same
// processor overlap, and every span is well-formed. Schedule books each
// processor's spans in start order, so each span need only start no
// earlier than the end of its processor's previous span.
func (t *Timeline) Validate() error {
	for i, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("sim: span %q on %s ends before it starts", s.Label, s.Proc)
		}
		for j := i - 1; j >= 0; j-- {
			if prev := t.spans[j]; prev.Proc == s.Proc {
				if s.Start < prev.End {
					return fmt.Errorf("sim: spans %q and %q overlap on %s", prev.Label, s.Label, s.Proc)
				}
				break
			}
		}
	}
	return nil
}

// Render writes a human-readable trace, ordered by start time.
func (t *Timeline) Render(w io.Writer) {
	spans := t.Spans()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Proc < spans[j].Proc
	})
	for _, s := range spans {
		fmt.Fprintf(w, "%10.3fms %10.3fms  %-40s %s\n",
			float64(s.Start)/1e6, float64(s.End)/1e6, s.Proc, s.Label)
	}
	fmt.Fprintf(w, "makespan %.3fms\n", float64(t.Makespan())/1e6)
}

// Report is the cost summary of one simulated inference.
type Report struct {
	Latency        time.Duration
	DynamicJ       float64 // compute energy (work-based)
	DRAMJ          float64 // data-movement energy
	StaticJ        float64 // uncore power × makespan
	CPUBusy        time.Duration
	GPUBusy        time.Duration
	NPUBusy        time.Duration // zero without the §8.3 NPU extension
	KernelLaunches int
}

// TotalJ returns the total energy in joules.
func (r Report) TotalJ() float64 { return r.DynamicJ + r.DRAMJ + r.StaticJ }

// String implements fmt.Stringer.
func (r Report) String() string {
	s := fmt.Sprintf("latency=%.3fms energy=%.2fmJ (dyn %.2f + dram %.2f + static %.2f) cpuBusy=%.3fms gpuBusy=%.3fms",
		float64(r.Latency)/1e6, r.TotalJ()*1e3, r.DynamicJ*1e3, r.DRAMJ*1e3, r.StaticJ*1e3,
		float64(r.CPUBusy)/1e6, float64(r.GPUBusy)/1e6)
	if r.NPUBusy > 0 {
		s += fmt.Sprintf(" npuBusy=%.3fms", float64(r.NPUBusy)/1e6)
	}
	return s
}
