package quant

// Vector exposes vector to the external test package, whose golden test
// runs whole models with the output stages' AVX2 bodies on and off.
var Vector = &vector
