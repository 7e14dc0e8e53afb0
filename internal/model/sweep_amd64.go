package model

import "hetkg/internal/vec"

// eachKernels lets Sweep.Reset pick ComplEx's eight-row ScoreEach kernels
// in sweep_amd64.s. It is decided once, from vec.HasAVX2. Tests switch it
// off to hold the kernels to m.Score.
var eachKernels = vec.HasAVX2()

// The eight-row kernels score len(out)/8 blocks of candidate rows, each
// exactly 2d floats wide, against a hoisted query q of 4d floats laid out
// per coordinate (Sweep.Reset), d a multiple of 4.

//go:noescape
func complExTailsEach(out, q []float32, rows [][]float32)

//go:noescape
func complExHeadsEach(out, q []float32, rows [][]float32)
