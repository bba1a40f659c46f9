package faults

import (
	"fmt"
	"testing"

	"mulayer/internal/device"
)

// goldenKinds is the decision sequence of the injector built in
// TestGoldenDecisionSequence, one letter per kernel (n none, s stall,
// f fail, d die, p panic), recorded from the original implementation.
const goldenKinds = "nsnnnnpsnnnsnsnnnfnndsnsddpfsfnnsssdffnnfffnnnnnnnnnnnnnnnnnnnnn"

// TestGoldenDecisionSequence pins a seeded injector's first 64
// decisions to a literal sequence. Every seeded chaos run replays this
// stream, so a reordered, skipped or extra draw must fail here — a
// self-consistency check (same seed, same stream) would not notice.
func TestGoldenDecisionSequence(t *testing.T) {
	in := New(Config{Seed: 42, FailRate: 0.2, StallRate: 0.15, DieRate: 0.1, PanicRate: 0.05, MaxFaults: 24}, 3)
	letter := map[Kind]byte{None: 'n', Stall: 's', Fail: 'f', Die: 'd', Panic: 'p'}
	got := make([]byte, 64)
	for i := range got {
		// A fresh processor per kernel: after a Die decision, kernels on
		// the same processor are rejected without a draw.
		p := &device.Processor{Name: fmt.Sprintf("p%d", i), Type: device.CPU}
		got[i] = letter[drive(in, p, 1)[0]]
	}
	if string(got) != goldenKinds {
		t.Fatalf("decision sequence\n got %s\nwant %s", got, goldenKinds)
	}
	if st := in.Stats(); st.Injected() != 24 {
		t.Fatalf("%d faults injected, want the budget of 24", st.Injected())
	}
}
