//go:build !amd64

package opt

// Off amd64 there is no AdaGrad kernel: Apply runs its loop only.
var adaGradBlocks func(row, acc, grad []float32, lr, eps float32) int
