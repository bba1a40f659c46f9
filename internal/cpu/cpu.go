// Package cpu reports, once at start-up, whether the host can run the
// kernels' AVX2 assembly. It is the one CPUID check behind every
// assembly body in the repository: the gemm register tiles, the quant
// output stages and the nn max-pooling passes all branch on AVX2.
package cpu

// AVX2 reports that the CPU implements AVX2 and the operating system
// saves the YMM registers across context switches. It is false on every
// architecture but amd64.
var AVX2 = hasAVX2()
