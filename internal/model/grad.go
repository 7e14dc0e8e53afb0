package model

import "hetkg/internal/vec"

// ComplEx.Grad and TransE-ℓ1 Grad are purely elementwise: each output
// coordinate is its own short chain of float32 multiplies and adds. On AVX2
// machines (vec.Kernels) the kernels in grad_amd64.s run that chain for
// eight coordinates per instruction, one coordinate per vector lane, with
// the Go loop's operations in the Go loop's order and no FMA, so every lane
// writes the bits the Go loop writes. Which NaN survives where two meet
// follows an instruction's operand order, which the compiler picks line by
// line, so a block with a NaN result is handed back unwritten; a result
// that is not NaN never had a NaN operand, and its bits do not depend on
// operand order. (TransE's residual may be NaN under a non-NaN result, but
// it only reaches the result through two comparisons, which are false for
// every NaN alike.) The Go loops stay as the fallback and the reference.

// A blockKernel updates whole eight-coordinate blocks from the first on and
// returns how many coordinates it finished; it stops at the first block
// with a NaN result, which it leaves unwritten. Every row it is given holds
// at least the floats the Go loop touches.
type blockKernel = func(h, r, t []float32, dScore float32, gh, gr, gt []float32) int

// gradBlocks hands a Grad call's leading whole eight-coordinate blocks to
// kernel where that gives the Go loop's bits, and returns how many
// coordinates it finished: 0 where the kernel did not run, and the Go loop
// then does everything from there. n is how many floats of each row the Go
// loop touches. The kernel needs all three gradient rows and every row at
// least n floats long; a nil gradient row is the Go loop's to skip, and a
// short row the Go loop's to panic on. It also needs the gradient rows to
// share no memory with each other or with h, r and t: the Go loop updates
// one coordinate at a time, so a self-loop (gt is gh) or a negative that
// drew the positive's other entity makes one coordinate's update read
// another's result, which a whole block computed at once would not.
func gradBlocks(kernel blockKernel, n int, h, r, t []float32, dScore float32, gh, gr, gt []float32) int {
	if !vec.Kernels() || n < 8 || len(r) < n || len(t) < n || len(gh) < n || len(gr) < n || len(gt) < n {
		return 0
	}
	if vec.Overlap(n, gh, gr) || vec.Overlap(n, gh, gt) || vec.Overlap(n, gr, gt) {
		return 0
	}
	for _, g := range [3][]float32{gh, gr, gt} {
		if vec.Overlap(n, g, h) || vec.Overlap(n, g, r) || vec.Overlap(n, g, t) {
			return 0
		}
	}
	return kernel(h, r, t, dScore, gh, gr, gt)
}
