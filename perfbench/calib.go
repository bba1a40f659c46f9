package main

import (
	"sort"
	"syscall"
	"time"
)

// Host-speed calibration.
//
// The benchmark shares its host with other tenants, which slow the CPU
// itself by up to 1.8× for seconds to minutes at a time (README.md, "Why
// the numbers repeat"). So the benchmark times a fixed calibration kernel
// of its own next to the program's work, and scales host-time metrics by
// refCalib ÷ the kernel's time: a value then reads as on a host where the
// kernel takes refCalib. The kernel is this file's code, not the
// program's, so a change to the program cannot move it.
//
// The kernel has two parts. A naive float32 matrix product of 96×96
// matrices slows the most under contention; a sweep over one byte of every
// cache line of an 8 MB buffer outside the Go heap slows the least. The
// program's workloads lie in between, and the sum of the two tracked each
// of them within a few percent.

// refCalib is the calibration kernel's time on the undisturbed 2-vCPU
// Intel Xeon host the benchmark was written on.
const refCalib = 1750 * time.Microsecond

// calNeighbors is how many ops on each side of a closed-loop op share in
// the median calibration time its latency is scaled by.
const calNeighbors = 5

const calN = 96

var calA, calB, calC [calN * calN]float32

// calMem is the swept buffer; it is mapped outside the Go heap so that it
// does not count in live_heap_mb.
var calMem []byte

// calSink keeps the sweep from being optimised away.
var calSink byte

func init() {
	for i := range calA {
		calA[i] = float32(i%7) * 0.1
		calB[i] = float32(i%5) * 0.2
	}
	mem, err := syscall.Mmap(-1, 0, 8<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: mapping the calibration buffer: " + err.Error())
	}
	calMem = mem
}

// calibrate runs the calibration kernel once and returns its wall time.
// Not safe for concurrent use.
func calibrate() time.Duration {
	start := time.Now()
	calC = [calN * calN]float32{}
	for i := 0; i < calN; i++ {
		for k := 0; k < calN; k++ {
			a := calA[i*calN+k]
			for j := 0; j < calN; j++ {
				calC[i*calN+j] += a * calB[k*calN+j]
			}
		}
	}
	var s byte
	for i := 0; i < len(calMem); i += 64 {
		s += calMem[i]
		calMem[i] = s
	}
	calSink += s
	return time.Since(start)
}

// speedFactors returns, for each of a closed loop's ops, how much slower
// than the reference host the host ran around it: the median calibration
// time (ms) of the op and its calNeighbors neighbours on each side, over
// refCalib.
func speedFactors(calMS []float64) []float64 {
	out := make([]float64, len(calMS))
	win := make([]float64, 0, 2*calNeighbors+1)
	for i := range calMS {
		win = append(win[:0], calMS[max(0, i-calNeighbors):min(len(calMS), i+calNeighbors+1)]...)
		sort.Float64s(win)
		out[i] = win[len(win)/2] / ms(refCalib)
	}
	return out
}
