//go:build !amd64

package quant

// Without the amd64 assembly the output stages run their scalar bodies
// alone.

func stripVector(dst []uint8, acc []int32, c *stripConsts) int { return 0 }

func halfSumsVector(dst []uint8, acc []float32, b float32, t *StepTable) int { return 0 }
