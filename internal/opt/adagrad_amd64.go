package opt

// adaGradBlocks updates acc and row from grad for whole eight-element blocks
// from the first on and returns how many elements it finished; it stops at
// the first block with a NaN result, which it leaves unwritten. acc and row
// hold at least len(grad) floats.
//
//go:noescape
func adaGradBlocks(row, acc, grad []float32, lr, eps float32) int
