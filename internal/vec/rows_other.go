//go:build !amd64

package vec

// Off amd64 there are no block kernels: scoreRows runs the Go kernels only.
var blockKernels = false

var l1DistBlocks, squaredL2DistBlocks, dotBlocks func(out, q, rows []float32)
