package sim

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestWriteChromeTrace(t *testing.T) {
	tl := NewTimeline(0)
	tl.Schedule("cpu", "conv1[cpu]", 0, 2*time.Millisecond, 100)
	tl.Schedule("gpu", "conv1[gpu]", 0, 3*time.Millisecond, 200)
	tl.Schedule("cpu", "conv2", 3*time.Millisecond, time.Millisecond, 50)

	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// 2 metadata events + 3 spans.
	if len(events) != 5 {
		t.Fatalf("events = %d, want 5", len(events))
	}
	var meta, complete int
	for _, e := range events {
		switch e["ph"] {
		case "M":
			meta++
			if e["args"].(map[string]any)["name"] == "" {
				t.Fatal("metadata event without a processor name")
			}
		case "X":
			complete++
			if e["dur"].(float64) <= 0 {
				t.Fatalf("non-positive duration in %v", e)
			}
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if meta != 2 || complete != 3 {
		t.Fatalf("meta=%d complete=%d", meta, complete)
	}
	// Timestamps are microseconds: the 2ms span must read 2000.
	for _, e := range events {
		if e["name"] == "conv1[cpu]" && e["dur"].(float64) != 2000 {
			t.Fatalf("conv1[cpu] dur = %v µs", e["dur"])
		}
	}
	// Same-processor spans share a track id.
	tids := map[string]float64{}
	for _, e := range events {
		if e["ph"] == "X" {
			tids[e["name"].(string)] = e["tid"].(float64)
		}
	}
	if tids["conv1[cpu]"] != tids["conv2"] {
		t.Fatal("cpu spans must share a track")
	}
	if tids["conv1[cpu]"] == tids["conv1[gpu]"] {
		t.Fatal("cpu and gpu spans must not share a track")
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTimeline(0).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil || len(events) != 0 {
		t.Fatalf("empty timeline should produce an empty JSON array: %v %v", events, err)
	}
}
