package vec

// HasAVX2 reports whether AVX2 kernels may run here, from CPUID: the CPU
// must have AVX2 and the OS must save the YMM registers across context
// switches. It is the one CPU decision behind every assembly kernel in the
// module (this package's sweep and Add kernels, model's gradient and
// ScoreEach kernels, opt's AdaGrad kernel).
func HasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// The kernels score len(out)/8 blocks; len(out) and len(q) are multiples
// of 8 and rows holds len(out)·len(q) floats.

//go:noescape
func l1DistBlocks(out, q, rows []float32)

//go:noescape
func squaredL2DistBlocks(out, q, rows []float32)

//go:noescape
func dotBlocks(out, q, rows []float32)

//go:noescape
func addBlocks(dst, a, b []float32) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
