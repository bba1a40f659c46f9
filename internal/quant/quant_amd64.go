package quant

// The AVX2 bodies of the output stages (quant_amd64.s). They do no
// bounds checks of their own: the callers pass len(dst) == len(acc).

// stripAVX2 runs Strip's steps with no left shift on the first
// len(acc)/8·8 accumulators.
//
//go:noescape
func stripAVX2(dst []uint8, acc []int32, c *stripConsts)

// halfSumsAVX2 is HalfSums' body: it returns the count of leading
// elements it wrote.
//
//go:noescape
func halfSumsAVX2(dst []uint8, acc []float32, b float32, t *StepTable) int

func stripVector(dst []uint8, acc []int32, c *stripConsts) int {
	if !vector {
		return 0
	}
	stripAVX2(dst, acc, c)
	return len(acc) &^ 7
}

func halfSumsVector(dst []uint8, acc []float32, b float32, t *StepTable) int {
	if !vector {
		return 0
	}
	return halfSumsAVX2(dst, acc, b, t)
}
