package gemm

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"mulayer/internal/f16"
)

// Pack→unpack must reproduce the weight matrix exactly for every dtype
// and every (m,k), including panel-tail row counts.
func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	f := func(ms, ks uint8) bool {
		m, k := int(ms%37)+1, int(ks%37)+1
		af := randF32(m*k, rng)
		if got := PackAF32(af, m, k).Unpack(); len(got) != m*k {
			return false
		} else {
			for i := range got {
				if got[i] != af[i] {
					return false
				}
			}
		}
		au := randU8(m*k, rng)
		pu := PackAU8(au, m, k)
		gu := pu.Unpack()
		for i := range gu {
			if gu[i] != au[i] {
				return false
			}
		}
		// Row sums recorded at pack time must match the rows.
		for i := 0; i < m; i++ {
			var s int32
			for l := 0; l < k; l++ {
				s += int32(au[i*k+l])
			}
			if pu.rowSums[i] != s {
				return false
			}
		}
		ah := f16.FromSlice32(randF32(m*k, rng))
		gh := PackAF16(ah, m, k).Unpack()
		for i := range gh {
			if gh[i] != ah[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The QUInt8 weight pack holds one byte per weight: at most
// ⌈m/mr⌉·mr·(k+1) bytes of panels (an odd k pads one byte per row) plus the
// row sums. A layout that widened the weights to int16 would double it,
// which otherwise first shows as a live-heap regression of a whole
// inference. Both what the pack holds and what PackAU8 allocates are
// checked, so a second copy kept on the side is caught too.
func TestPackAU8OneBytePerWeight(t *testing.T) {
	for _, s := range [][2]int{{1, 1}, {5, 7}, {9, 64}, {64, 4095}, {64, 4096}} {
		m, k := s[0], s[1]
		a := make([]uint8, m*k)
		rows := (m + mr - 1) / mr * mr
		limit := rows*(k+1) + rows*4 // panels + int32 row sums
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := PackAU8(a, m, k)
		runtime.ReadMemStats(&after)
		held := cap(p.data)*int(unsafe.Sizeof(p.data[0])) + cap(p.rowSums)*4
		if held > limit {
			t.Errorf("m=%d k=%d: pack holds %d bytes, want at most %d", m, k, held, limit)
		}
		// Small objects are counted a span at a time, so allow 16 KiB of
		// accounting slack; an int16 copy of the large packs adds 256 KiB.
		if m*k >= 1<<18 {
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(limit+16<<10) {
				t.Errorf("m=%d k=%d: PackAU8 allocated %d bytes, want at most %d", m, k, alloc, limit+16<<10)
			}
		}
	}
}

func TestPackDimensionChecks(t *testing.T) {
	for _, fn := range []func(){
		func() { PackAF32(make([]float32, 3), 2, 2) },
		func() { PackAU8(make([]uint8, 3), 2, 2) },
		func() { PackAF16(make([]f16.F16, 3), 2, 2) },
		func() { PackAF32(nil, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("short buffer or bad dims must panic")
				}
			}()
			fn()
		}()
	}
}

// A cached pack must give results identical to a fresh pack when reused
// across calls.
func TestPackedReuseIdenticalResults(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, k, n := 37, 53, 29
	a, b := randU8(m*k, rng), randU8(k*n, rng)
	pa := PackAU8(a, m, k)
	first := make([]int32, m*n)
	qGEMM(pa, b, first, n, 7, 200)
	for call := 0; call < 3; call++ {
		got := make([]int32, m*n)
		qGEMM(pa, b, got, n, 7, 200)
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("call %d elem %d: %d vs %d", call, i, got[i], first[i])
			}
		}
	}
	want := make([]int32, m*n)
	QGEMMRef(a, b, want, m, k, n, 7, 200)
	for i := range first {
		if first[i] != want[i] {
			t.Fatalf("elem %d: packed %d vs ref %d", i, first[i], want[i])
		}
	}
}

// PackCache must pack each range exactly once and hand every concurrent
// reader the same pack; kernels running concurrently against the shared
// pack must all agree with the reference (exercised under `make race`).
func TestPackCacheConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m, k, n := 24, 31, 17
	a, b := randU8(m*k, rng), randU8(k*n, rng)
	want := make([]int32, m*n)
	QGEMMRef(a, b, want, m, k, n, 3, 250)
	// The float kernels draw from the same scratch pools concurrently.
	ah, bh := f16.FromSlice32(randF32(m*k, rng)), f16.FromSlice32(randF32(k*n, rng))
	pah := PackAF16(ah, m, k)
	wantH := make([]f16.F16, m*n)
	F16Ref(ah, bh, wantH, m, k, n)

	var cache PackCache[[2]int, PackedAU8]
	var builds sync.Map
	var wg sync.WaitGroup
	packs := make([]*PackedAU8, 16)
	for g := 0; g < len(packs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pa := cache.Get([2]int{0, m}, func() *PackedAU8 {
				builds.Store(g, true)
				return PackAU8(a, m, k)
			})
			packs[g] = pa
			got := make([]int32, m*n)
			qGEMM(pa, b, got, n, 3, 250)
			gotH := make([]f16.F16, m*n)
			f16GEMM(pah, bh, gotH, n)
			for i := range got {
				if got[i] != want[i] || gotH[i] != wantH[i] {
					t.Errorf("goroutine %d elem %d: %d vs %d, f16 %#04x vs %#04x", g, i, got[i], want[i], gotH[i], wantH[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	nbuilds := 0
	builds.Range(func(_, _ any) bool { nbuilds++; return true })
	if nbuilds != 1 {
		t.Errorf("build ran %d times, want exactly once", nbuilds)
	}
	for g := 1; g < len(packs); g++ {
		if packs[g] != packs[0] {
			t.Errorf("goroutine %d got a different pack pointer", g)
		}
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", cache.Len())
	}
	cache.Reset()
	if cache.Len() != 0 {
		t.Errorf("cache holds %d entries after Reset, want 0", cache.Len())
	}
}

// Distinct ranges get distinct packs whose results match the reference
// computed over the corresponding row slice.
func TestPackCacheRangeKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, k, n := 20, 13, 9
	a, b := randF32(m*k, rng), randF32(k*n, rng)
	var cache PackCache[[2]int, PackedAF32]
	for _, r := range [][2]int{{0, m}, {0, 7}, {7, m}, {0, 7}} {
		c0, c1 := r[0], r[1]
		pa := cache.Get([2]int{c0, c1}, func() *PackedAF32 {
			return PackAF32(a[c0*k:c1*k], c1-c0, k)
		})
		got := make([]float32, (c1-c0)*n)
		f32GEMM(pa, b, got, n)
		want := make([]float32, (c1-c0)*n)
		F32Ref(a[c0*k:c1*k], b, want, c1-c0, k, n)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("range %v elem %d: %v vs %v", r, i, got[i], want[i])
			}
		}
	}
	if cache.Len() != 3 {
		t.Errorf("cache holds %d entries, want 3 distinct ranges", cache.Len())
	}
}
