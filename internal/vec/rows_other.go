//go:build !amd64

package vec

// HasAVX2 reports whether AVX2 kernels may run here: never off amd64.
func HasAVX2() bool { return false }

// Off amd64 there are no block kernels, and HasAVX2 keeps the switch off:
// scoreRows runs the Go kernels only, and Add its loop.
var l1DistBlocks, squaredL2DistBlocks, dotBlocks func(out, q, rows []float32)

var addBlocks func(dst, a, b []float32) int
