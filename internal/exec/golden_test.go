package exec

import (
	"testing"

	"mulayer/internal/models"
	"mulayer/internal/nn"
	"mulayer/internal/partition"
	"mulayer/internal/tensor"
)

// splitPlan builds a plan that forces split ratio p on every splittable
// layer and runs the rest on a single processor.
func splitPlan(t *testing.T, m *models.Model, p float64) *partition.Plan {
	t.Helper()
	shapes, err := m.Graph.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	order, err := m.Graph.Toposort()
	if err != nil {
		t.Fatal(err)
	}
	var plan partition.Plan
	for _, id := range order {
		n := m.Graph.Node(id)
		if n.Layer.Kind() == nn.OpInput {
			continue
		}
		lp := 1.0
		if n.Layer.SplitChannels(m.Graph.InputShapes(id, shapes)) > 1 {
			lp = p
		}
		plan.Steps = append(plan.Steps, partition.Step{Layer: &partition.LayerStep{Node: id, P: lp}})
	}
	return &plan
}

// TestGoldenFusedBitExact is the golden-output regression gate for the
// fused micro-batching path: for every bundled model, fixed-seed forward
// passes under each uniform pipeline (QUInt8, F32, F16) must be
// bit-identical between plain single-request execution and fused batched
// execution, at every split ratio p in {0, 0.25, 0.5, 0.75, 1} and batch
// sizes {1, 4}. The package's tests run on poisoned arenas (TestMain), so
// the gate also fails when a kernel reads its output before writing it.
//
// The golden outputs are the single-CPU (p = 1) Run results. Two system
// invariants make them the reference for every configuration:
//   - a uniform pipeline runs identical arithmetic on both processors,
//     and each output channel's sums do not depend on which range holds
//     it, so the split ratio cannot change the output;
//   - fusing rows into batched panels changes the cost model only, never
//     the per-member math.
func TestGoldenFusedBitExact(t *testing.T) {
	builders := map[string]struct {
		build   func(models.Config) (*models.Model, error)
		inputHW int // AlexNet's stride-4 stem collapses below 64x64
	}{
		"lenet5":     {models.LeNet5, 32},
		"alexnet":    {models.AlexNet, 64},
		"vgg16":      {models.VGG16, 32},
		"googlenet":  {models.GoogLeNet, 32},
		"squeezenet": {models.SqueezeNetV11, 32},
		"mobilenet":  {models.MobileNetV1, 32},
		"resnet18":   {models.ResNet18, 32},
	}
	for name, bc := range builders {
		bc := bc
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// Logits, not probabilities: the F32 and F16 pipelines
			// saturate a 10-class softmax, which would hide most faults.
			m, err := bc.build(models.Config{Numeric: true, InputHW: bc.inputHW, WidthScale: 0.25, Classes: 10, Seed: 1, NoSoftmax: true})
			if err != nil {
				t.Fatal(err)
			}
			cal := make([]*tensor.Tensor, 2)
			for i := range cal {
				in := tensor.New(m.InputShape)
				in.FillRandom(uint64(100+i), 1)
				cal[i] = in
			}
			if err := m.Calibrate(cal); err != nil {
				t.Fatal(err)
			}
			for _, dt := range tensor.AllDataTypes {
				goldenFused(t, m, runCfg(m, partition.Uniform(dt), true))
			}
		})
	}
}

// goldenFused runs one model's golden checks under one uniform pipeline.
func goldenFused(t *testing.T, m *models.Model, cfg Config) {
	t.Helper()
	const batch = 4
	inputs := make([]*tensor.Tensor, batch)
	for i := range inputs {
		in := tensor.New(m.InputShape)
		in.FillRandom(uint64(7000+i), 1)
		inputs[i] = in
	}

	// Golden outputs: each input through the single-CPU plan.
	golden := make([]*tensor.Tensor, batch)
	for i, in := range inputs {
		res, err := Run(m.Graph, splitPlan(t, m, 1), in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		golden[i] = res.Output
	}

	st := cfg.Pipe.Storage
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		plan := splitPlan(t, m, p)

		// The cross-ratio invariant itself: a plain run at this ratio
		// reproduces the golden output bit-for-bit.
		res, err := Run(m.Graph, plan, inputs[0], cfg)
		if err != nil {
			t.Fatalf("%v p=%v: %v", st, p, err)
		}
		if d := res.Output.MaxAbsDiff(golden[0]); d != 0 {
			t.Fatalf("%v p=%v: single run differs from golden by %v", st, p, d)
		}

		// Batch size 1: a one-member fused run is exactly Run.
		b1, err := RunFused(m.Graph, plan, []FusedItem{{Input: inputs[0]}}, cfg)
		if err != nil {
			t.Fatalf("%v p=%v batch=1: %v", st, p, err)
		}
		if b1.Rows != 1 {
			t.Fatalf("%v p=%v batch=1: fused rows %d", st, p, b1.Rows)
		}
		if d := b1.Items[0].Output.MaxAbsDiff(golden[0]); d != 0 {
			t.Fatalf("%v p=%v batch=1: fused output differs from golden by %v", st, p, d)
		}

		// Batch size 4: every member's slice of the fused run must match
		// its own golden output.
		items := make([]FusedItem, batch)
		for i := range items {
			items[i] = FusedItem{Input: inputs[i]}
		}
		b4, err := RunFused(m.Graph, plan, items, cfg)
		if err != nil {
			t.Fatalf("%v p=%v batch=4: %v", st, p, err)
		}
		if b4.Rows != batch {
			t.Fatalf("%v p=%v batch=4: fused rows %d", st, p, b4.Rows)
		}
		for i, ir := range b4.Items {
			if ir.Err != nil {
				t.Fatalf("%v p=%v batch=4 member %d: %v", st, p, i, ir.Err)
			}
			if d := ir.Output.MaxAbsDiff(golden[i]); d != 0 {
				t.Fatalf("%v p=%v batch=4 member %d: fused output differs from golden by %v", st, p, i, d)
			}
		}
		// Amortization sanity: the fused batch must beat four sequential
		// single runs at the same split ratio.
		single := res.Report.Latency.Seconds()
		if got := b4.Report.Latency.Seconds(); got >= float64(batch)*single {
			t.Fatalf("%v p=%v: fused batch of %d (%.6fs) not faster than %d sequential runs (%.6fs each)", st, p, batch, got, batch, single)
		}
	}
}
