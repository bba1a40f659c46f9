package nn

// maxRunAVX2 is maxRunGo's body in AVX2 (pool_amd64.s), 32 lanes at a
// time: len(dst) must be at least 32, and it does no bounds checks of its
// own.
//
//go:noescape
func maxRunAVX2(dst, src []uint8, off []int, mask []uint8, period, phase int)

// maxRunVector runs maxRunGo's body in vector lanes and reports whether
// it did: a run shorter than one vector is left to the Go body.
func maxRunVector(dst, src []uint8, off []int, mask []uint8, period, phase int) bool {
	if !poolVector || len(dst) < 32 {
		return false
	}
	maxRunAVX2(dst, src, off, mask, period, phase)
	return true
}
