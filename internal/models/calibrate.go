package models

import (
	"fmt"
	"math"

	"mulayer/internal/graph"
	"mulayer/internal/nn"
	"mulayer/internal/quant"
	"mulayer/internal/tensor"
)

// f32Forwarder matches every layer's F32 pipeline.
type f32Forwarder interface {
	ForwardF32(ins []*tensor.Tensor, out *tensor.Tensor, c0, c1 int)
}

// RunF32 executes the network in the reference F32 pipeline and returns
// every node's activation. It is the calibration and accuracy-evaluation
// workhorse; the exec package has its own simulated-run machinery.
func (m *Model) RunF32(input *tensor.Tensor) (map[graph.NodeID]*tensor.Tensor, error) {
	if m.SpecOnly {
		return nil, fmt.Errorf("models: %s is spec-only; build with Config.Numeric", m.Name)
	}
	if input.Shape != m.InputShape {
		return nil, fmt.Errorf("models: input shape %v, want %v", input.Shape, m.InputShape)
	}
	g := m.Graph
	shapes, err := g.InferShapes()
	if err != nil {
		return nil, err
	}
	order, err := g.Toposort()
	if err != nil {
		return nil, err
	}
	vals := make(map[graph.NodeID]*tensor.Tensor, g.Len())
	for _, id := range order {
		n := g.Node(id)
		if n.Layer.Kind() == nn.OpInput {
			vals[id] = input
			continue
		}
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for i, inID := range n.Inputs {
			ins[i] = vals[inID]
		}
		out := tensor.New(shapes[id])
		c1 := n.Layer.SplitChannels(g.InputShapes(id, shapes))
		if c1 < 1 {
			c1 = 1
		}
		n.Layer.(f32Forwarder).ForwardF32(ins, out, 0, c1)
		vals[id] = out
	}
	return vals, nil
}

// Calibrate observes per-node activation ranges over the calibration
// inputs and installs quantization grids on every layer. This is the
// post-training stand-in for the fake-quantization range learning the
// paper assumes has already been applied to the network (§6); Figure 10
// labels the resulting configuration "QUInt8+FakeQuant".
func (m *Model) Calibrate(inputs []*tensor.Tensor) error {
	if len(inputs) == 0 {
		return fmt.Errorf("models: calibration needs at least one input")
	}
	g := m.Graph
	obs := make(map[graph.NodeID]*quant.Observer, g.Len())
	for i := 0; i < g.Len(); i++ {
		obs[graph.NodeID(i)] = quant.NewObserver()
	}
	for _, in := range inputs {
		vals, err := m.RunF32(in)
		if err != nil {
			return err
		}
		for id, v := range vals {
			obs[id].ObserveSlice(v.Data)
		}
	}
	params := make(map[graph.NodeID]quant.Params, g.Len())
	order, _ := g.Toposort()
	for _, id := range order {
		n := g.Node(id)
		switch l := n.Layer.(type) {
		case *nn.Input:
			params[id] = obs[id].Params()
			m.InputParams = params[id]
		default:
			m.installParams(n, l, params, obs[id].Params())
		}
	}
	m.Calibrated = true
	return nil
}

// CalibrateNaive installs activation grids from analytic worst-case bounds
// instead of observed ranges: each layer's output bound is the input bound
// times the largest absolute filter row sum. Bounds compound
// multiplicatively with depth, so deep networks get absurdly coarse
// quantization grids — reproducing the accuracy collapse Figure 10 shows
// for naive post-training QUInt8 (up to 50.7 percentage points on
// Inception-v4) without needing the real ImageNet pipeline.
func (m *Model) CalibrateNaive() error {
	if m.SpecOnly {
		return fmt.Errorf("models: %s is spec-only", m.Name)
	}
	g := m.Graph
	bound := make(map[graph.NodeID]float64, g.Len())
	params := make(map[graph.NodeID]quant.Params, g.Len())
	order, _ := g.Toposort()
	for _, id := range order {
		n := g.Node(id)
		switch l := n.Layer.(type) {
		case *nn.Input:
			bound[id] = 1 // synthetic inputs live in [-1, 1]
			params[id] = quant.ChooseParams(-1, 1)
			m.InputParams = params[id]
		case *nn.Conv2D:
			b := bound[n.Inputs[0]] * maxAbsRowSum(l.W.Data, rowLen(l.W.Shape))
			p := naiveParams(b, l.Act)
			bound[id] = b
			m.installParams(n, l, params, p)
		case *nn.FullyConnected:
			b := bound[n.Inputs[0]] * maxAbsRowSum(l.W.Data, l.InFeatures)
			p := naiveParams(b, l.Act)
			bound[id] = b
			m.installParams(n, l, params, p)
		case *nn.Softmax:
			bound[id] = 1
			m.installParams(n, l, params, quant.ChooseParams(0, 1))
		default:
			// Shape-preserving layers keep the input bound.
			var b float64
			for _, in := range n.Inputs {
				if bound[in] > b {
					b = bound[in]
				}
			}
			bound[id] = b
			m.installParams(n, n.Layer, params, quant.ChooseParams(float32(-b), float32(b)))
		}
	}
	m.Calibrated = true
	return nil
}

// rowLen returns the per-output-channel weight count of an OIHW filter.
func rowLen(s tensor.Shape) int { return s.C * s.H * s.W }

// maxAbsRowSum returns max over rows of Σ|w|, the worst-case gain of one
// output channel.
func maxAbsRowSum(w []float32, k int) float64 {
	var best float64
	for i := 0; i+k <= len(w); i += k {
		var s float64
		for _, v := range w[i : i+k] {
			s += math.Abs(float64(v))
		}
		if s > best {
			best = s
		}
	}
	return best
}

// naiveParams converts a symmetric bound to quantization parameters,
// honoring the activation's sign constraint.
func naiveParams(b float64, act quant.Activation) quant.Params {
	lo := float32(-b)
	if act == quant.ActReLU || act == quant.ActReLU6 {
		lo = 0
	}
	return quant.ChooseParams(lo, float32(b))
}

// installParams wires one layer's quantization grids: weighted layers get
// SetQuant (building their integer caches); shape-preserving layers adopt
// their input grid as both input and output so the quantized kernels'
// equality preconditions hold.
func (m *Model) installParams(n *graph.Node, layer nn.Layer, params map[graph.NodeID]quant.Params, observed quant.Params) {
	inP := params[n.Inputs[0]]
	switch l := layer.(type) {
	case *nn.Conv2D:
		l.SetQuant(inP, observed)
		params[n.ID] = observed
	case *nn.FullyConnected:
		l.SetQuant(inP, observed)
		params[n.ID] = observed
	case *nn.Pool:
		l.QI = nn.QuantInfo{In: inP, Out: inP, Ready: true}
		params[n.ID] = inP
	case *nn.ReLU:
		l.QI = nn.QuantInfo{In: inP, Out: inP, Ready: true}
		params[n.ID] = inP
	case *nn.LRN:
		l.QI = nn.QuantInfo{In: inP, Out: observed, Ready: true}
		params[n.ID] = observed
	case *nn.Concat:
		ins := make([]quant.Params, len(n.Inputs))
		for i, id := range n.Inputs {
			ins[i] = params[id]
		}
		l.SetQuant(ins, observed)
		params[n.ID] = observed
	case *nn.Add:
		l.QI = nn.QuantInfo{In: inP, Out: observed, Ready: true}
		params[n.ID] = observed
	case *nn.Softmax:
		out := quant.ChooseParams(0, 1)
		l.QI = nn.QuantInfo{In: inP, Out: out, Ready: true}
		params[n.ID] = out
	default:
		params[n.ID] = inP
	}
}
