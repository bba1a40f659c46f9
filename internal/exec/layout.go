package exec

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mulayer/internal/f16"
	"mulayer/internal/graph"
	"mulayer/internal/nn"
	"mulayer/internal/partition"
	"mulayer/internal/quant"
	"mulayer/internal/tensor"
)

// Layout is the execution layout of one (graph, plan, storage type),
// built once and read by every run of the plan: each node's output and
// input shapes, and each output's offset in one activation arena.
// Offsets follow each output's lifetime over the numeric call order (the
// input's conversion, then plan steps in order, the branches of a branch
// step in order), from the call that writes it to the last call that
// reads it; the graph output lives past every call. They are assigned
// greedy by size (Lee et al., "On-Device Neural Net Inference with Mobile
// GPUs"): the largest output first, each into the tightest gap left by
// the outputs whose lifetimes overlap its own. Outputs whose lifetimes
// are disjoint share bytes; a node's output never overlaps its inputs,
// which live until the call that reads them. A Layout is immutable and
// safe for concurrent use.
type Layout struct {
	g       *graph.Graph
	plan    *partition.Plan
	storage tensor.DataType
	// shapes[id] is node id's output shape and ins[id] its input shapes.
	shapes []tensor.Shape
	ins    [][]tensor.Shape
	// off[id] is the element offset of node id's output in the arena and
	// size the arena's length in elements.
	off  []int
	size int
	// spans is the number of kernels a run books on the timeline: one per
	// active processor of each node.
	spans int
}

// NewLayout checks that plan covers every non-input node of g exactly
// once, each after its inputs, and builds the plan's layout for the
// storage type.
func NewLayout(g *graph.Graph, plan *partition.Plan, storage tensor.DataType) (*Layout, error) {
	if err := checkStorage(storage); err != nil {
		return nil, err
	}
	shapes, err := g.InferShapes()
	if err != nil {
		return nil, err
	}
	cover := plan.Covered()
	n := g.Len()
	l := &Layout{
		g: g, plan: plan, storage: storage,
		shapes: make([]tensor.Shape, n), ins: make([][]tensor.Shape, n), off: make([]int, n),
	}
	for i := range l.shapes {
		id := graph.NodeID(i)
		want := 1
		if g.Node(id).Layer.Kind() == nn.OpInput {
			want = 0
		}
		if cover[id] != want {
			return nil, fmt.Errorf("exec: plan covers node %d %dx, want %d", id, cover[id], want)
		}
		l.shapes[i] = shapes[id]
		l.ins[i] = g.InputShapes(id, shapes)
	}

	// first[id] is the call that writes node id's output, last[id] the
	// last call that reads it.
	first, last := make([]int, n), make([]int, n)
	done := make([]bool, n)
	done[g.Input()] = true
	call := 0
	visit := func(id graph.NodeID) error {
		call++
		for _, in := range g.Node(id).Inputs {
			if !done[in] {
				return fmt.Errorf("exec: plan runs node %d before its input %d", id, in)
			}
			last[in] = call
		}
		first[id], last[id], done[id] = call, call, true
		return nil
	}
	for _, st := range plan.Steps {
		switch {
		case st.Layer != nil:
			id := st.Layer.Node
			if err := visit(id); err != nil {
				return nil, err
			}
			for _, k := range partition.Channels(st.Layer.P, st.Layer.PNPU, g.Node(id).Layer.SplitChannels(l.ins[id])) {
				if k > 0 {
					l.spans++
				}
			}
		case st.Branch != nil:
			for _, br := range st.Branch.Group.Branches {
				for _, id := range br {
					if err := visit(id); err != nil {
						return nil, err
					}
					l.spans++
				}
			}
		}
	}
	last[g.Output()] = call + 1
	l.place(first, last)
	return l, nil
}

// place assigns every output its arena offset, greedy by size, given the
// outputs' lifetimes.
func (l *Layout) place(first, last []int) {
	bySize := make([]int, len(l.shapes))
	for i := range bySize {
		bySize[i] = i
	}
	slices.SortStableFunc(bySize, func(a, b int) int {
		return cmp.Compare(l.shapes[b].Elems(), l.shapes[a].Elems())
	})
	// placed holds the outputs placed so far, in offset order.
	placed := make([]int, 0, len(bySize))
	for _, id := range bySize {
		sz := l.shapes[id].Elems()
		best, bestGap, end := -1, 0, 0
		for _, p := range placed {
			if first[id] > last[p] || first[p] > last[id] {
				continue // lifetimes disjoint
			}
			if gap := l.off[p] - end; gap >= sz && (best < 0 || gap < bestGap) {
				best, bestGap = end, gap
			}
			end = max(end, l.off[p]+l.shapes[p].Elems())
		}
		if best < 0 {
			best = end
		}
		l.off[id] = best
		l.size = max(l.size, best+sz)
		at, _ := slices.BinarySearchFunc(placed, best, func(p, off int) int { return cmp.Compare(l.off[p], off) })
		placed = slices.Insert(placed, at, id)
	}
}

// arena is one batch member's activation memory under one layout: a
// buffer of the layout's storage type and one tensor header per node over
// its planned range, so a warm run allocates no activation. Only the
// fields of the layout's storage type are used.
type arena struct {
	lay *Layout
	f32 []float32
	f16 []f16.F16
	q8  []uint8
	ft  []tensor.Tensor
	ht  []tensor.HTensor
	qt  []tensor.QTensor
	// fins, hins and qins are one forward call's input list, reused.
	fins []*tensor.Tensor
	hins []*tensor.HTensor
	qins []*tensor.QTensor
}

// arenas pools arenas per storage type, indexed by tensor.DataType.
// sync.Pool drops arenas that stay idle through a GC cycle, so a model
// that stops running pins no memory.
var arenas [3]sync.Pool

// poisonArenas, set only by this package's tests, fills each node's
// output range with a non-zero pattern just before the node computes it,
// a different pattern each time, so a kernel that reads its output before
// writing it makes two runs of one input disagree. (A fill of the whole
// arena per run would not do: most ranges were written by an earlier,
// dead output of the same run, the same bytes on every run.) poisonFills
// numbers the fills.
var (
	poisonArenas bool
	poisonFills  atomic.Uint32
)

// getArena takes an arena for lay from the pool, fitted to lay.
func getArena(lay *Layout) *arena {
	a, _ := arenas[lay.storage].Get().(*arena)
	if a == nil {
		a = new(arena)
	}
	if a.lay != lay {
		a.fit(lay)
	}
	return a
}

// putArena returns an arena to its pool.
func putArena(a *arena) { arenas[a.lay.storage].Put(a) }

// resize returns s with length n, reallocating only when it is too short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fit sizes the arena's buffer for lay and points each node's header at
// its planned range; a QUInt8 header's params are set when its node runs.
func (a *arena) fit(lay *Layout) {
	n := len(lay.shapes)
	span := func(id int) (lo, hi int) { return lay.off[id], lay.off[id] + lay.shapes[id].Elems() }
	switch lay.storage {
	case tensor.F32:
		a.f32, a.ft = resize(a.f32, lay.size), resize(a.ft, n)
		for id := range a.ft {
			lo, hi := span(id)
			a.ft[id] = tensor.Tensor{Shape: lay.shapes[id], Data: a.f32[lo:hi:hi]}
		}
	case tensor.F16:
		a.f16, a.ht = resize(a.f16, lay.size), resize(a.ht, n)
		for id := range a.ht {
			lo, hi := span(id)
			a.ht[id] = tensor.HTensor{Shape: lay.shapes[id], Data: a.f16[lo:hi:hi]}
		}
	case tensor.QUInt8:
		a.q8, a.qt = resize(a.q8, lay.size), resize(a.qt, n)
		for id := range a.qt {
			lo, hi := span(id)
			a.qt[id] = tensor.QTensor{Shape: lay.shapes[id], Data: a.q8[lo:hi:hi]}
		}
	}
	a.lay = lay
}

// poison fills node id's output range with the next fill's value:
// non-zero, different from the last fill's, and finite (MaxAbsDiff does
// not see a NaN).
func (a *arena) poison(id graph.NodeID) {
	k := poisonFills.Add(1)
	v := float32(1 + k%1024)
	switch a.lay.storage {
	case tensor.F32:
		for i := range a.ft[id].Data {
			a.ft[id].Data[i] = v
		}
	case tensor.F16:
		h := f16.FromFloat32(v)
		for i := range a.ht[id].Data {
			a.ht[id].Data[i] = h
		}
	case tensor.QUInt8:
		for i := range a.qt[id].Data {
			a.qt[id].Data[i] = uint8(1 + k%255)
		}
	}
}

// load converts the float32 input into node id's range of the arena in
// the storage type; p is the input's quantization grid.
func (a *arena) load(id graph.NodeID, in *tensor.Tensor, p quant.Params) {
	switch a.lay.storage {
	case tensor.F32:
		copy(a.ft[id].Data, in.Data)
	case tensor.F16:
		dst := a.ht[id].Data
		for i, v := range in.Data {
			dst[i] = f16.FromFloat32(v)
		}
	case tensor.QUInt8:
		q := &a.qt[id]
		q.Params = p
		for i, v := range in.Data {
			q.Data[i] = p.Quantize(v)
		}
	}
}

// output copies node id's activation out of the arena as float32.
func (a *arena) output(id graph.NodeID) *tensor.Tensor {
	switch a.lay.storage {
	case tensor.F32:
		return a.ft[id].Clone()
	case tensor.F16:
		return tensor.HalfToFloat(&a.ht[id])
	case tensor.QUInt8:
		return tensor.Dequantize(&a.qt[id])
	}
	return nil
}
