//go:build !amd64

package model

// Off amd64 there are no gradient kernels: Grad runs the Go loops only.
var complExGradAVX2, transEL1GradAVX2 blockKernel
