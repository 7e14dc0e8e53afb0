package opt

import "hetkg/internal/vec"

// applyKernels sends AdaGrad.Apply's whole eight-element blocks to the AVX2
// kernel in adagrad_amd64.s. It is decided once, from vec.HasAVX2. Tests
// switch it off to hold the kernel to the loop.
var applyKernels = vec.HasAVX2()

// adaGradBlocks updates acc and row from grad for whole eight-element blocks
// from the first on and returns how many elements it finished; it stops at
// the first block with a NaN result, which it leaves unwritten. acc and row
// hold at least len(grad) floats.
//
//go:noescape
func adaGradBlocks(row, acc, grad []float32, lr, eps float32) int
