package cpu

// hasAVX2 is implemented in cpu_amd64.s.
func hasAVX2() bool
