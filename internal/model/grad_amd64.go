package model

// The blockKernels of ComplEx.Grad and TransE-ℓ1 Grad. complExGradAVX2
// takes d = len(h)/2 coordinates, each a real and an imaginary float d
// apart; transEL1GradAVX2 takes len(h).

//go:noescape
func complExGradAVX2(h, r, t []float32, dScore float32, gh, gr, gt []float32) int

//go:noescape
func transEL1GradAVX2(h, r, t []float32, dScore float32, gh, gr, gt []float32) int
