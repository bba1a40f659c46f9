package netfaults

import (
	"strconv"
	"testing"
)

// goldenDecisions is the decision sequence of the injector built in
// TestGoldenDecisionSequence, recorded from the original
// implementation: the kind, then for truncate and corrupt the position
// variate frac and for corrupt the flipped bit.
var goldenDecisions = []string{
	"truncate@0.5216586794507735", "truncate@0.24304095922158303", "drop",
	"latency", "dial_timeout", "none", "corrupt@0.027002219032391455/3",
	"none", "truncate@0.2337124921614003", "drop", "reset",
	"corrupt@0.4864207793163062/2", "latency", "reset", "latency",
	"latency", "truncate@0.19415815177685403",
	"truncate@0.8001631962044483", "corrupt@0.46289724275349825/2",
	"truncate@0.4692485692520554", "corrupt@0.49041376436080475/4",
	"none", "drop", "corrupt@0.3046139392947023/1",
	"corrupt@0.19453602695400973/7", "truncate@0.7419167925140351",
	"none", "corrupt@0.004158813241671918/7", "reset",
	"truncate@0.6251956708394153", "none", "none", "reset",
	"dial_timeout", "none", "none", "none",
	"corrupt@0.17201829932756718/6", "corrupt@0.26803428973950755/7",
	"drop", "none", "none", "drop", "reset", "latency", "latency",
	"truncate@0.6633652325503757", "dial_timeout",
	"corrupt@0.6879415858387282/1", "reset", "drop", "none", "none",
	"none", "none", "none", "none", "none", "none", "none", "none",
	"none", "none", "none",
}

// TestGoldenDecisionSequence pins one target's first 64 decisions,
// body-mutation variates included, to a literal sequence: a reordered
// or extra draw would silently change every seeded chaos run.
func TestGoldenDecisionSequence(t *testing.T) {
	in := newInjector(Config{
		Seed: 42, Target: "10.0.0.1:8081",
		DialTimeoutRate: 0.1, ResetRate: 0.1, DropRate: 0.1,
		TruncateRate: 0.15, CorruptRate: 0.15, LatencyRate: 0.1,
		MaxFaults: 40,
	})
	var got []string
	for i := 0; i < 64; i++ {
		d := in.decide()
		s := d.kind.String()
		switch d.kind {
		case Truncate:
			s += "@" + strconv.FormatFloat(d.frac, 'g', -1, 64)
		case Corrupt:
			s += "@" + strconv.FormatFloat(d.frac, 'g', -1, 64) + "/" + strconv.Itoa(int(d.bit))
		}
		got = append(got, s)
	}
	if len(goldenDecisions) != len(got) {
		t.Fatalf("have %d golden decisions, want %d", len(goldenDecisions), len(got))
	}
	for i := range got {
		if got[i] != goldenDecisions[i] {
			t.Errorf("decision %d: got %s, want %s", i, got[i], goldenDecisions[i])
		}
	}
	if st := in.stats; st.Injected() != 40 {
		t.Fatalf("%d faults injected, want the budget of 40", st.Injected())
	}
}
