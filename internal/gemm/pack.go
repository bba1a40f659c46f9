package gemm

import (
	"sync"

	"mulayer/internal/f16"
)

// Operand packing for the register-tiled kernels (tiled.go).
//
// The left operand of every layer GEMM is the weight matrix, which is
// reused on every request: convolutions multiply (OutC × InC·KH·KW)
// filters against im2col patches, fully-connected layers multiply
// (OutC × InFeatures) weights against activation vectors. Packing it once
// into panel-contiguous form — gemmlowp- and Marlin-style — and caching
// the packed form per layer amortizes the reorder across all requests,
// while the streaming right operand (patches / activations) is packed per
// call inside the tiled drivers.
//
// Layout: rows are grouped into panels of mr; within a panel the elements
// are stored k-major as one [mr] array per k step:
//
//	data[panel*K + l][r] == A[(panel*mr+r)*K + l]
//
// so the micro-kernel reads one contiguous stream of mr values per k
// iteration, and ranging over a panel's arrays needs no per-element
// bounds checks. The row count is padded up to a multiple of mr with
// zeros (never written back), which lets every row tile run at full
// height.

// packPanels packs row-major a (m×k) into mr-row panels, converting each
// element with conv.
func packPanels[T, U any](a []T, m, k int, conv func(T) U) [][mr]U {
	checkPack(len(a), m, k)
	data := make([][mr]U, (m+mr-1)/mr*k)
	for i := 0; i < m; i++ {
		panel := data[i/mr*k : (i/mr+1)*k]
		for l, v := range a[i*k : (i+1)*k] {
			panel[l][i%mr] = conv(v)
		}
	}
	return data
}

func checkPack(la, m, k int) {
	if m <= 0 || k <= 0 {
		panic("gemm: non-positive dimension")
	}
	if la < m*k {
		panic("gemm: buffer too small for dimensions")
	}
}

// unpackPanels reconstructs the row-major matrix packPanels packed.
func unpackPanels[U, T any](data [][mr]U, m, k int, conv func(U) T) []T {
	out := make([]T, m*k)
	for i := 0; i < m; i++ {
		panel := data[i/mr*k : (i/mr+1)*k]
		for l := range panel {
			out[i*k+l] = conv(panel[l][i%mr])
		}
	}
	return out
}

func same[T any](v T) T { return v }

// PackedAF32 is a float32 weight matrix packed into mr-row panels.
type PackedAF32 struct {
	M, K int
	data [][mr]float32
}

// PackAF32 packs row-major a (m×k) into panel form.
func PackAF32(a []float32, m, k int) *PackedAF32 {
	return &PackedAF32{M: m, K: k, data: packPanels(a, m, k, same[float32])}
}

// Unpack reconstructs the original row-major matrix exactly.
func (p *PackedAF32) Unpack() []float32 { return unpackPanels(p.data, p.M, p.K, same[float32]) }

// PackedAU8 is a uint8 weight matrix packed into mr-row panels for the
// QUInt8 tiles, plus the per-row operand sums used by the gemmlowp
// zero-point decomposition:
//
//	Σ_l (a-za)(b-zb) = Σ_l a·b − zb·Σ_l a − za·Σ_l b + k·za·zb
//
// The row sums make the za/zb corrections an O(m+n) epilogue instead of
// two subtractions per multiply-accumulate. int32 addition wraps, so the
// decomposition is bit-identical to the naive reference mod 2³².
//
// A panel walks k in pairs, one byte per weight: each row's (a[2l],
// a[2l+1]) are adjacent,
//
//	data[panel*kp + l][r][h] == A[(panel*mr+r)*K + 2l+h],  kp = ⌈K/2⌉
//
// and an odd K's last pair is padded with 0, which adds nothing to any
// sum. The tile widens the bytes to int16 in-register, so the pack stays
// one byte per weight.
type PackedAU8 struct {
	M, K    int
	data    [][mr][2]uint8
	rowSums []int32
}

// PackAU8 packs row-major a (m×k) into k-pair panel form with row sums.
func PackAU8(a []uint8, m, k int) *PackedAU8 {
	checkPack(len(a), m, k)
	kp := (k + 1) / 2
	data := make([][mr][2]uint8, (m+mr-1)/mr*kp)
	sums := make([]int32, len(data)/kp*mr)
	for i := 0; i < m; i++ {
		panel, r := data[i/mr*kp:(i/mr+1)*kp], i%mr
		var sum int32
		for l, v := range a[i*k : (i+1)*k] {
			panel[l/2][r][l%2] = v
			sum += int32(v)
		}
		sums[i] = sum
	}
	return &PackedAU8{M: m, K: k, data: data, rowSums: sums}
}

// Unpack reconstructs the original row-major matrix exactly.
func (p *PackedAU8) Unpack() []uint8 {
	kp := (p.K + 1) / 2
	out := make([]uint8, p.M*p.K)
	for i := 0; i < p.M; i++ {
		panel := p.data[i/mr*kp : (i/mr+1)*kp]
		row := out[i*p.K : (i+1)*p.K]
		for l := range row {
			row[l] = panel[l/2][i%mr][l%2]
		}
	}
	return out
}

// PackedAF16 is a binary16 weight matrix packed into mr-row panels. The
// elements are stored widened to float32 — the conversion is exact, the
// F16 kernels accumulate in float32 anyway (see ConvF16), and widening at
// pack time moves the per-element conversion out of the O(m·k·n) inner
// loop into the O(m·k) pack.
type PackedAF16 struct {
	M, K int
	data [][mr]float32
}

// PackAF16 packs row-major a (m×k) into widened panel form.
func PackAF16(a []f16.F16, m, k int) *PackedAF16 {
	return &PackedAF16{M: m, K: k, data: packPanels(a, m, k, f16.F16.Float32)}
}

// Unpack reconstructs the original row-major matrix exactly (every
// binary16 value round-trips through float32 unchanged).
func (p *PackedAF16) Unpack() []f16.F16 { return unpackPanels(p.data, p.M, p.K, f16.FromFloat32) }

// PackCache memoizes what a layer derives once from its weights or grids:
// packed weight panels keyed by the output-channel range [c0,c1) a split
// plan assigns to a processor, or an output stage keyed by its grid.
// Layers keep one cache per derived form; split execution hits it
// concurrently from the CPU and GPU sides of a plan, so it is safe for
// concurrent readers. build runs under the lock: concurrent first lookups
// of the same key build exactly once and share the result.
type PackCache[K comparable, T any] struct {
	mu sync.RWMutex
	m  map[K]*T
}

// Get returns the cached value for key, building and caching it on the
// first lookup.
func (c *PackCache[K, T]) Get(key K, build func() *T) *T {
	c.mu.RLock()
	p := c.m[key]
	c.mu.RUnlock()
	if p != nil {
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.m[key]; p != nil {
		return p
	}
	if c.m == nil {
		c.m = make(map[K]*T)
	}
	p = build()
	c.m[key] = p
	return p
}

// Reset drops every cached value (weights changed, e.g. requantization).
func (c *PackCache[K, T]) Reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

// Len reports the number of cached keys.
func (c *PackCache[K, T]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
