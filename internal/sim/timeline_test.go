package sim

import (
	"strings"
	"testing"
	"time"
)

func TestScheduleSerializesPerProcessor(t *testing.T) {
	tl := NewTimeline(0)
	s1, e1 := tl.Schedule("cpu", "a", 0, 10*time.Millisecond, 1)
	if s1 != 0 || e1 != 10*time.Millisecond {
		t.Fatalf("first span [%v,%v)", s1, e1)
	}
	// Ready at 5ms but the processor is busy until 10ms.
	s2, e2 := tl.Schedule("cpu", "b", 5*time.Millisecond, 5*time.Millisecond, 1)
	if s2 != 10*time.Millisecond || e2 != 15*time.Millisecond {
		t.Fatalf("second span [%v,%v)", s2, e2)
	}
	// A different processor is free immediately.
	s3, _ := tl.Schedule("gpu", "c", 5*time.Millisecond, 2*time.Millisecond, 1)
	if s3 != 5*time.Millisecond {
		t.Fatalf("gpu span starts %v", s3)
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMakespanAndBusy(t *testing.T) {
	tl := NewTimeline(0)
	tl.Schedule("cpu", "a", 0, 4*time.Millisecond, 0)
	tl.Schedule("gpu", "b", 0, 7*time.Millisecond, 0)
	tl.Schedule("cpu", "c", 0, 2*time.Millisecond, 0)
	if tl.Makespan() != 7*time.Millisecond {
		t.Fatalf("makespan %v", tl.Makespan())
	}
	if tl.BusyTime("cpu") != 6*time.Millisecond {
		t.Fatalf("cpu busy %v", tl.BusyTime("cpu"))
	}
	if tl.BusyTime("gpu") != 7*time.Millisecond {
		t.Fatalf("gpu busy %v", tl.BusyTime("gpu"))
	}
	// Makespan can never be below any processor's busy time.
	if tl.Makespan() < tl.BusyTime("cpu") || tl.Makespan() < tl.BusyTime("gpu") {
		t.Fatal("makespan below busy time")
	}
}

func TestDynamicEnergySum(t *testing.T) {
	tl := NewTimeline(0)
	tl.Schedule("cpu", "a", 0, time.Millisecond, 100)
	tl.Schedule("gpu", "b", 0, time.Millisecond, 250)
	if tl.DynamicEnergyPJ() != 350 {
		t.Fatalf("energy %v", tl.DynamicEnergyPJ())
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	tl := NewTimeline(0)
	tl.spans = []Span{
		{Proc: "cpu", Label: "a", Start: 0, End: 10},
		{Proc: "cpu", Label: "b", Start: 5, End: 15},
	}
	if tl.Validate() == nil {
		t.Fatal("overlap must be detected")
	}
}

func TestScheduleRejectsNegativeDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative duration must panic")
		}
	}()
	NewTimeline(0).Schedule("cpu", "x", 0, -1, 0)
}

func TestRender(t *testing.T) {
	tl := NewTimeline(0)
	tl.Schedule("cpu", "conv1", 0, time.Millisecond, 0)
	var sb strings.Builder
	tl.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "conv1") || !strings.Contains(out, "makespan") {
		t.Fatalf("render output missing fields: %q", out)
	}
}

func TestReportTotals(t *testing.T) {
	r := Report{Latency: time.Millisecond, DynamicJ: 0.001, DRAMJ: 0.002, StaticJ: 0.003}
	if r.TotalJ() != 0.006 {
		t.Fatalf("total %v", r.TotalJ())
	}
	if !strings.Contains(r.String(), "latency") {
		t.Fatal("report string")
	}
}

func TestSpansCopy(t *testing.T) {
	tl := NewTimeline(0)
	tl.Schedule("cpu", "a", 0, time.Millisecond, 0)
	spans := tl.Spans()
	spans[0].Label = "mutated"
	if tl.spans[0].Label != "a" {
		t.Fatal("Spans must return a copy")
	}
}
