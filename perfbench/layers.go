package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mulayer/internal/f16"
	"mulayer/internal/gemm"
	"mulayer/internal/graph"
	"mulayer/internal/models"
	"mulayer/internal/nn"
	"mulayer/internal/partition"
	"mulayer/internal/quant"
	"mulayer/internal/tensor"
)

// qForwarder and qViaF16Forwarder are the nn layer methods the executor
// calls on the μLayer pipeline: QUInt8 storage, integer kernels on the
// CPU, on-the-fly F16 kernels on the GPU where a layer has them.
type qForwarder interface {
	ForwardQ(ins []*tensor.QTensor, out *tensor.QTensor, c0, c1 int)
}
type qViaF16Forwarder interface {
	ForwardQViaF16(ins []*tensor.QTensor, out *tensor.QTensor, c0, c1 int)
}

// shadow replays a plan's kernel calls one layer method at a time, on the
// same output-channel ranges the executor gives each processor, so that
// every nn call can be timed from the benchmark's own code. Its output
// must match the executor's bit for bit.
type shadow struct {
	m      *models.Model
	shapes map[graph.NodeID]tensor.Shape
	alloc  uint64
	runs   int
}

func newShadow(m *models.Model) *shadow {
	shapes, err := m.Graph.InferShapes()
	if err != nil {
		panic(err) // the model ran already, so its shapes are valid
	}
	return &shadow{m: m, shapes: shapes}
}

// allocKB is the mean heap allocation of one shadow pass.
func (s *shadow) allocKB() float64 { return ratio(float64(s.alloc)/1024, float64(s.runs)) }

func (s *shadow) run(plan *partition.Plan, input *tensor.Tensor, tr *tracer, op int) (*tensor.Tensor, error) {
	g := s.m.Graph
	vals := map[graph.NodeID]*tensor.QTensor{g.Input(): tensor.Quantize(input, s.m.InputParams)}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	layer := func(id graph.NodeID, ranges ...[3]int) error {
		n := g.Node(id)
		out := tensor.NewQ(s.shapes[id], s.outParams(n, vals))
		ins := make([]*tensor.QTensor, len(n.Inputs))
		for i, in := range n.Inputs {
			ins[i] = vals[in]
		}
		for _, r := range ranges {
			side := partition.Proc(r[2])
			name := spanName(n.Layer.Kind(), side)
			start := time.Now()
			if v, ok := n.Layer.(qViaF16Forwarder); ok && side == partition.ProcGPU {
				v.ForwardQViaF16(ins, out, r[0], r[1])
			} else if q, ok := n.Layer.(qForwarder); ok {
				q.ForwardQ(ins, out, r[0], r[1])
			} else {
				return fmt.Errorf("layer %s has no QUInt8 pipeline", n.Layer.Name())
			}
			tr.record(name, "shadow", op, start)
		}
		vals[id] = out
		return nil
	}
	whole := func(id graph.NodeID, side partition.Proc) error {
		c := g.Node(id).Layer.SplitChannels(g.InputShapes(id, s.shapes))
		if c <= 0 {
			c = 1
		}
		return layer(id, [3]int{0, c, int(side)})
	}
	for _, st := range plan.Steps {
		var err error
		switch {
		case st.Layer != nil && st.Layer.PNPU > 0:
			err = fmt.Errorf("shadow: NPU steps are not replayed")
		case st.Layer != nil:
			err = s.layerStep(st.Layer, layer, whole)
		case st.Branch != nil:
			for i, br := range st.Branch.Group.Branches {
				for _, id := range br {
					if err = whole(id, st.Branch.Assign[i]); err != nil {
						break
					}
				}
			}
		}
		if err != nil {
			return nil, err
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	s.alloc += after.TotalAlloc - before.TotalAlloc
	s.runs++
	return tensor.Dequantize(vals[g.Output()]), nil
}

// layerStep splits one layer step the way the executor does: p is the
// CPU share of the split channels, rounded to whole channels and clamped
// so both processors get at least one.
func (s *shadow) layerStep(st *partition.LayerStep, layer func(graph.NodeID, ...[3]int) error, whole func(graph.NodeID, partition.Proc) error) error {
	id, p := st.Node, st.P
	switch {
	case p >= 1:
		return whole(id, partition.ProcCPU)
	case p <= 0:
		return whole(id, partition.ProcGPU)
	}
	c := s.m.Graph.Node(id).Layer.SplitChannels(s.m.Graph.InputShapes(id, s.shapes))
	if c < 2 {
		return whole(id, partition.ProcCPU)
	}
	split := min(max(int(math.Round(p*float64(c))), 1), c-1)
	return layer(id, [3]int{0, split, int(partition.ProcCPU)}, [3]int{split, c, int(partition.ProcGPU)})
}

// outParams is the output grid the executor allocates for a node: the
// layer's calibrated grid, else its first input's.
func (s *shadow) outParams(n *graph.Node, vals map[graph.NodeID]*tensor.QTensor) quant.Params {
	if qi := n.Layer.Quant(); qi != nil && qi.Ready {
		return qi.Out
	}
	if len(n.Inputs) > 0 {
		return vals[n.Inputs[0]].Params
	}
	return s.m.InputParams
}

func spanName(k nn.OpKind, side partition.Proc) string {
	var kind string
	switch k {
	case nn.OpConv, nn.OpDepthwise:
		kind = "nn.conv"
	case nn.OpFC:
		kind = "nn.fc"
	default:
		return "nn.other"
	}
	if side == partition.ProcCPU {
		return kind + ".cpu"
	}
	return kind + ".gpu"
}

// gemmShape is one conv/fc layer lowered to a GEMM: m×k weights times a
// k×n patch matrix, with the im2col geometry for convolutions.
type gemmShape struct {
	m, k, n int
	geom    *gemm.ConvGeom
}

// modelGEMMs lists the whole-layer GEMM shapes of a model's dense
// convolutions and fully-connected layers.
func modelGEMMs(m *models.Model) []gemmShape {
	shapes, err := m.Graph.InferShapes()
	if err != nil {
		panic(err) // the model ran already, so its shapes are valid
	}
	var out []gemmShape
	for i := 0; i < m.Graph.Len(); i++ {
		id := graph.NodeID(i)
		switch l := m.Graph.Node(id).Layer.(type) {
		case *nn.Conv2D:
			if l.Groups > 1 {
				continue
			}
			in := m.Graph.InputShapes(id, shapes)[0]
			g := gemm.ConvGeom{InC: l.InC, InH: in.H, InW: in.W, KH: l.KH, KW: l.KW,
				StrideH: l.StrideH, StrideW: l.StrideW, PadH: l.PadH, PadW: l.PadW}
			out = append(out, gemmShape{m: l.OutC, k: g.PatchRows(), n: g.PatchCols(), geom: &g})
		case *nn.FullyConnected:
			out = append(out, gemmShape{m: l.OutC, k: l.InFeatures, n: 1})
		}
	}
	return out
}

// profileGEMM times im2col and the one-shot QUInt8 and F16 GEMMs on every
// conv/fc shape of the model (whole layers, median of three passes) and
// reports operation counts and the bytes the operands and results
// occupy, computed from their sizes.
func profileGEMM(m *models.Model) map[string]float64 {
	const passes = 3
	var im2col, q, h []float64
	var macs, bytes float64
	shapes := modelGEMMs(m)
	for pass := 0; pass < passes; pass++ {
		var tIm, tQ, tH time.Duration
		for i, s := range shapes {
			a := make([]uint8, s.m*s.k)
			b := make([]uint8, s.k*s.n)
			ah := make([]f16.F16, s.m*s.k)
			bh := make([]f16.F16, s.k*s.n)
			fillGEMM(a, ah, uint64(i))
			fillGEMM(b, bh, uint64(i)+1000)
			if s.geom != nil {
				g := *s.geom
				in := make([]uint8, g.InC*g.InH*g.InW)
				inh := make([]f16.F16, len(in))
				fillGEMM(in, inh, uint64(i)+2000)
				start := time.Now()
				gemm.Im2ColU8(in, g, b, 128)
				gemm.Im2ColF16(inh, g, bh)
				tIm += time.Since(start)
			}
			acc := make([]int32, s.m*s.n)
			start := time.Now()
			gemm.QGEMM(a, b, acc, s.m, s.k, s.n, 128, 128)
			tQ += time.Since(start)
			c := make([]f16.F16, s.m*s.n)
			start = time.Now()
			gemm.F16GEMM(ah, bh, c, s.m, s.k, s.n)
			tH += time.Since(start)
			if pass == 0 {
				macs += float64(s.m) * float64(s.k) * float64(s.n)
				bytes += float64(s.m*s.k+s.k*s.n) + 4*float64(s.m*s.n)
			}
		}
		im2col, q, h = append(im2col, ms(tIm)), append(q, ms(tQ)), append(h, ms(tH))
	}
	qMS, hMS := median(q), median(h)
	return map[string]float64{
		"gemm.im2col_ms":  median(im2col),
		"gemm.q_ms":       qMS,
		"gemm.f16_ms":     hMS,
		"gemm.q_gops":     2 * macs / (qMS * 1e-3) / 1e9,
		"gemm.f16_gflops": 2 * macs / (hMS * 1e-3) / 1e9,
		"gemm.macs":       macs,
		"gemm.bytes":      bytes,
	}
}

// fillGEMM fills a uint8 operand and its binary16 twin with seeded values.
func fillGEMM(u []uint8, h []f16.F16, seed uint64) {
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range u {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u[i] = uint8(x)
		h[i] = f16.FromFloat32(float32(int(u[i])-128) / 128)
	}
}
