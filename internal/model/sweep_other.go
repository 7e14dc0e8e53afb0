//go:build !amd64

package model

// Off amd64 there are no ScoreEach kernels: ScoreEach runs the four-row
// kernels and m.Score only.
var complExTailsEach, complExHeadsEach func(out, q []float32, rows [][]float32)
