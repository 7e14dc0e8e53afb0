#include "textflag.h"

// func addBlocks(dst, a, b []float32) int
//
// Add's AVX2 kernel: dst[i] = a[i] + b[i] for whole eight-element blocks
// from the first on, one element per YMM lane; it returns how many elements
// it finished and stops at the first block whose sum holds a NaN, which it
// leaves unwritten. Add checks that the loop's one-element-at-a-time order
// cannot show (dst is each operand or apart from it).
//	DI dst, SI a, DX b, AX elements finished, CX blocks left
TEXT ·addBlocks(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	XORQ AX, AX
	SHRQ $3, CX
	JZ   done

block:
	VMOVUPS (SI)(AX*4), Y0
	VADDPS  (DX)(AX*4), Y0, Y0
	VCMPPS  $3, Y0, Y0, Y1     // unordered: a NaN lane
	VPTEST  Y1, Y1
	JNZ     handBack
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX
	DECQ    CX
	JNZ     block

handBack:
	VZEROUPPER

done:
	MOVQ AX, ret+72(FP)
	RET
