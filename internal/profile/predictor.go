// Package profile implements μLayer's latency predictor (§6, Figure 13).
//
// Following the paper, the predictor extends Neurosurgeon's approach
// (Kang et al., ASPLOS 2017): per processor, per layer class, and per data
// type it fits a logarithmic regression of execution latency against the
// layer's amount of computation, trained on a sweep of synthetic layer
// profiles. To estimate a channel-wise split it first predicts the CPU-
// and GPU-only latencies and then scales them linearly by the split ratio
// p, exactly as §6 describes.
//
// The training profiles come from the device cost model (the substitute
// for profiling real hardware, DESIGN.md §2). The fit is deliberately not
// a table lookup: the device model's cache knee and memory-bound regions
// make the log-log relation only approximately linear, so the predictor
// carries genuine approximation error like its on-device counterpart.
package profile

import (
	"fmt"
	"math"
	"time"

	"mulayer/internal/device"
	"mulayer/internal/nn"
	"mulayer/internal/tensor"
)

// Key selects one regression model.
type Key struct {
	Proc  string
	Kind  nn.OpKind
	DType tensor.DataType
}

// linModel is ln(latency) = A + B·ln(feature).
type linModel struct {
	A, B float64
	ok   bool
}

// Predictor estimates per-layer execution latency.
type Predictor struct {
	models map[Key]linModel
}

// feature reduces a layer cost to the regression feature: the MAC count
// for compute layers, element traffic for movement-dominated ones.
func feature(kind nn.OpKind, c nn.Cost) float64 {
	f := float64(c.MACs)
	if kind == nn.OpConcat || f == 0 {
		f = float64(c.InElems + c.OutElems)
	}
	if f < 1 {
		f = 1
	}
	return f
}

// trainPoint is one synthetic profile observation.
type trainPoint struct {
	feature float64
	latency time.Duration
}

// fit performs ordinary least squares in log-log space.
func fit(points []trainPoint) linModel {
	n := float64(len(points))
	if n < 2 {
		return linModel{}
	}
	var sx, sy, sxx, sxy float64
	for _, p := range points {
		x := math.Log(p.feature)
		y := math.Log(float64(p.latency) / float64(time.Second))
		sx += x
		sy += y
		sxx += float64(x * x)
		sxy += float64(x * y)
	}
	den := float64(n*sxx) - float64(sx*sx)
	if den == 0 {
		return linModel{}
	}
	b := (float64(n*sxy) - float64(sx*sy)) / den
	a := (sy - float64(b*sx)) / n
	return linModel{A: a, B: b, ok: true}
}

// syntheticConvs yields a sweep of convolution geometries spanning the
// sizes found in the evaluated NNs (1×1 bottlenecks up to 11×11 stems,
// 1e5–1e10 MACs).
func syntheticConvs() []*nn.Conv2D {
	var out []*nn.Conv2D
	id := 0
	for _, k := range []int{1, 3, 5, 7, 11} {
		for _, c := range []int{16, 64, 192, 512} {
			for _, hw := range []int{7, 14, 28, 56, 112} {
				if hw < k {
					continue
				}
				out = append(out, &nn.Conv2D{
					LayerName: fmt.Sprintf("prof-conv-%d", id),
					InC:       c, OutC: c, KH: k, KW: k,
					StrideH: 1, StrideW: 1, PadH: k / 2, PadW: k / 2,
				})
				id++
			}
		}
	}
	return out
}

// profileKind builds training points for one op kind on one processor.
func profileKind(p *device.Processor, kind nn.OpKind, dt tensor.DataType, converted bool) []trainPoint {
	var pts []trainPoint
	add := func(layer nn.Layer, in tensor.Shape) {
		c := layer.Cost([]tensor.Shape{in})
		if c.MACs == 0 && c.InElems == 0 {
			return
		}
		w := workFor(kind, c, dt, converted)
		pts = append(pts, trainPoint{feature: feature(kind, c), latency: p.KernelTime(w)})
	}
	switch kind {
	case nn.OpConv:
		for _, l := range syntheticConvs() {
			add(l, tensor.Shape{N: 1, C: l.InC, H: 56, W: 56})
		}
	case nn.OpDepthwise:
		for _, c := range []int{32, 64, 128, 256, 512} {
			for _, hw := range []int{7, 14, 28, 56, 112} {
				l := &nn.Conv2D{LayerName: "prof-dw", InC: c, OutC: c, KH: 3, KW: 3,
					StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: c}
				add(l, tensor.Shape{N: 1, C: c, H: hw, W: hw})
			}
		}
	case nn.OpFC:
		for _, in := range []int{256, 1024, 4096, 9216, 25088} {
			for _, outc := range []int{10, 128, 1000, 4096} {
				l := &nn.FullyConnected{LayerName: "prof-fc", InFeatures: in, OutC: outc}
				add(l, tensor.Shape{N: 1, C: in, H: 1, W: 1})
			}
		}
	case nn.OpMaxPool, nn.OpAvgPool:
		for _, c := range []int{16, 64, 192, 512} {
			for _, hw := range []int{7, 14, 28, 56, 112} {
				l := &nn.Pool{LayerName: "prof-pool", Max: kind == nn.OpMaxPool,
					KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
				add(l, tensor.Shape{N: 1, C: c, H: hw, W: hw})
			}
		}
	case nn.OpReLU:
		for _, c := range []int{16, 64, 256, 512} {
			for _, hw := range []int{7, 28, 56, 112} {
				add(&nn.ReLU{LayerName: "prof-relu"}, tensor.Shape{N: 1, C: c, H: hw, W: hw})
			}
		}
	case nn.OpLRN:
		for _, c := range []int{32, 96, 256} {
			for _, hw := range []int{13, 27, 55} {
				l := &nn.LRN{LayerName: "prof-lrn", Size: 5, K: 2, Alpha: 1e-4, Beta: 0.75}
				add(l, tensor.Shape{N: 1, C: c, H: hw, W: hw})
			}
		}
	case nn.OpConcat:
		for _, c := range []int{32, 128, 480} {
			for _, hw := range []int{7, 14, 28, 56} {
				l := &nn.Concat{LayerName: "prof-cat"}
				cost := l.Cost([]tensor.Shape{{N: 1, C: c, H: hw, W: hw}, {N: 1, C: c, H: hw, W: hw}})
				w := workFor(kind, cost, dt, converted)
				pts = append(pts, trainPoint{feature: feature(kind, cost), latency: p.KernelTime(w)})
			}
		}
	case nn.OpSoftmax:
		for _, c := range []int{10, 100, 1000} {
			add(&nn.Softmax{LayerName: "prof-sm"}, tensor.Shape{N: 1, C: c, H: 1, W: 1})
		}
	case nn.OpAdd:
		for _, c := range []int{16, 64, 256, 512} {
			for _, hw := range []int{7, 28, 56} {
				l := &nn.Add{LayerName: "prof-add"}
				in := tensor.Shape{N: 1, C: c, H: hw, W: hw}
				cost := l.Cost([]tensor.Shape{in, in})
				w := workFor(kind, cost, dt, converted)
				pts = append(pts, trainPoint{feature: feature(kind, cost), latency: p.KernelTime(w)})
			}
		}
	}
	return pts
}

// workFor converts a layer cost to a device work item, using the compute
// type's width for all traffic (the profiling configuration).
func workFor(kind nn.OpKind, c nn.Cost, dt tensor.DataType, converted bool) device.Work {
	sz := dt.Size()
	if converted {
		// Converted kernels store activations/weights as QUInt8.
		sz = tensor.QUInt8.Size()
	}
	return device.Work{
		Kind:            kind,
		MACs:            c.MACs,
		MovedBytes:      (c.InElems + c.WElems + c.OutElems) * sz,
		WorkingSetBytes: (c.InElems + c.WElems) * sz,
		Compute:         dt,
		Converted:       converted,
	}
}

// allKinds lists every kind the predictor models.
var allKinds = []nn.OpKind{
	nn.OpConv, nn.OpDepthwise, nn.OpFC, nn.OpMaxPool, nn.OpAvgPool,
	nn.OpReLU, nn.OpLRN, nn.OpConcat, nn.OpSoftmax, nn.OpAdd,
}

// Build profiles every (processor, kind, dtype) combination on the given
// processors and fits the regression models, mirroring the offline
// profiling pass μLayer performs per device.
func Build(procs ...*device.Processor) *Predictor {
	pr := &Predictor{models: make(map[Key]linModel)}
	for _, p := range procs {
		for _, kind := range allKinds {
			for _, dt := range tensor.AllDataTypes {
				pts := profileKind(p, kind, dt, false)
				pr.models[Key{p.Name, kind, dt}] = fit(pts)
			}
			// The converted pipeline (QUInt8 storage, F16 compute) gets its
			// own model, keyed by the compute type with the converted flag
			// folded into a dedicated key name.
			pts := profileKind(p, kind, tensor.F16, true)
			pr.models[Key{p.Name + "+conv", kind, tensor.F16}] = fit(pts)
		}
	}
	return pr
}

// Predict estimates the latency of executing the full layer cost on proc
// with the given compute type. converted selects the QUInt8→F16 pipeline
// model.
func (pr *Predictor) Predict(proc string, kind nn.OpKind, dt tensor.DataType, converted bool, c nn.Cost) time.Duration {
	name := proc
	if converted {
		name += "+conv"
		dt = tensor.F16
	}
	m, ok := pr.models[Key{name, kind, dt}]
	if !ok || !m.ok {
		// Fall back to the conv model of the same processor.
		m = pr.models[Key{name, nn.OpConv, dt}]
		if !m.ok {
			return 0
		}
	}
	f := feature(kind, c)
	lat := math.Exp(m.A + float64(m.B*math.Log(f)))
	return time.Duration(lat * float64(time.Second))
}

// PredictSplit estimates the latency of executing the fraction p of the
// layer: the paper's predictor scales the full-layer estimate linearly by
// the split ratio (§6).
func (pr *Predictor) PredictSplit(proc string, kind nn.OpKind, dt tensor.DataType, converted bool, c nn.Cost, p float64) time.Duration {
	if p <= 0 {
		return 0
	}
	full := pr.Predict(proc, kind, dt, converted, c)
	return time.Duration(float64(full) * p)
}

// Models returns the number of fitted models (diagnostics).
func (pr *Predictor) Models() int { return len(pr.models) }

// FitError evaluates the predictor against the device model on a held-out
// sweep, returning the geometric-mean relative error for one kind — a
// diagnostic mirroring the paper's reliance on Neurosurgeon's reported
// accuracy.
func FitError(pr *Predictor, p *device.Processor, kind nn.OpKind, dt tensor.DataType) float64 {
	pts := profileKind(p, kind, dt, false)
	if len(pts) == 0 {
		return 0
	}
	var sumLog float64
	for _, pt := range pts {
		pred := pr.Predict(p.Name, kind, dt, false, nn.Cost{MACs: int64(pt.feature), InElems: int64(pt.feature / 2), OutElems: int64(pt.feature / 2)})
		if pred <= 0 || pt.latency <= 0 {
			continue
		}
		r := float64(pred) / float64(pt.latency)
		if r < 1 {
			r = 1 / r
		}
		sumLog += math.Log(r)
	}
	return math.Exp(sumLog/float64(len(pts))) - 1
}
