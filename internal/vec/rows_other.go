//go:build !amd64

package vec

// Off amd64 there are no block kernels: scoreRows runs the Go kernels only,
// and Add its loop.
var blockKernels = false

// HasAVX2 reports whether AVX2 kernels may run here: never off amd64.
func HasAVX2() bool { return false }

var l1DistBlocks, squaredL2DistBlocks, dotBlocks func(out, q, rows []float32)

var addBlocks func(dst, a, b []float32) int
