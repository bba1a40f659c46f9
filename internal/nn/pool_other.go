//go:build !amd64

package nn

// Without the amd64 assembly the max passes run their Go body alone.
func maxRunVector(dst, src []uint8, off []int, mask []uint8, period, phase int) bool { return false }
