package model

// ComplEx's eight-row ScoreEach kernels, which Sweep.Reset picks while
// vec.Kernels is on. They score len(out)/8 blocks of candidate rows, each
// exactly 2d floats wide, against a hoisted query q of 4d floats laid out
// per coordinate (Sweep.Reset), d a multiple of 4.

//go:noescape
func complExTailsEach(out, q []float32, rows [][]float32)

//go:noescape
func complExHeadsEach(out, q []float32, rows [][]float32)
