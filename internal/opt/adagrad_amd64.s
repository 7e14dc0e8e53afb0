#include "textflag.h"

// func adaGradBlocks(row, acc, grad []float32, lr, eps float32) int
//
// AdaGrad.Apply's AVX2 kernel (adagrad.go states its contract). Lane i is
// element i of the current block; per lane, in the loop's order:
//	acc += g·g;  row -= (lr·g) / (sqrt(acc) + eps)
// The block's results stay in registers until neither holds a NaN.
//	DI row, SI acc, DX grad, AX elements finished, CX blocks left
//	Y14 lr, Y15 eps, in every lane
TEXT ·adaGradBlocks(SB), NOSPLIT, $0-88
	MOVQ row_base+0(FP), DI
	MOVQ acc_base+24(FP), SI
	MOVQ grad_base+48(FP), DX
	MOVQ grad_len+56(FP), CX
	XORQ AX, AX
	SHRQ $3, CX
	JZ   done
	VBROADCASTSS lr+72(FP), Y14
	VBROADCASTSS eps+76(FP), Y15

block:
	VMOVUPS (DX)(AX*4), Y0     // g
	VMULPS  Y0, Y0, Y1         // g·g
	VADDPS  (SI)(AX*4), Y1, Y1 // acc + g·g
	VSQRTPS Y1, Y2
	VADDPS  Y15, Y2, Y2        // sqrt(acc) + eps
	VMULPS  Y14, Y0, Y3        // lr·g
	VDIVPS  Y2, Y3, Y3         // (lr·g) / (sqrt(acc) + eps)
	VMOVUPS (DI)(AX*4), Y4
	VSUBPS  Y3, Y4, Y4         // row - step

	// A NaN in either result hands the block back unwritten.
	VCMPPS $3, Y4, Y1, Y5
	VPTEST Y5, Y5
	JNZ    handBack

	VMOVUPS Y1, (SI)(AX*4)
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ    $8, AX
	DECQ    CX
	JNZ     block

handBack:
	VZEROUPPER

done:
	MOVQ AX, ret+80(FP)
	RET
