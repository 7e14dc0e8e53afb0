package vec

// blockKernels is the one switch behind every assembly kernel in the module:
// this package's sweep and Add kernels, model's gradient and ScoreEach
// kernels and opt's AdaGrad kernel all run only while it is on. It is
// decided once, from HasAVX2; only tests flip it, through SetKernels.
var blockKernels = avx2

// avx2 is HasAVX2's answer, asked once: CPUID is slow under a hypervisor.
var avx2 = HasAVX2()

// Kernels reports whether the AVX2 kernels run. Each hot loop that may hand
// blocks to one reads it, so it stays one inlined load.
func Kernels() bool { return blockKernels }

// SetKernels is for tests, which hold every kernel to its Go loop by running
// both paths: it switches all the AVX2 kernels on or off and reports whether
// they now are as asked. It refuses to switch them on where HasAVX2 is
// false, so no test can run an AVX2 instruction on a CPU without it.
func SetKernels(on bool) bool {
	blockKernels = on && avx2
	return blockKernels == on
}
