package gemm

// ForceRef exposes forceRef to the external test package, whose golden
// test runs whole models through the reference loops.
var ForceRef = &forceRef
