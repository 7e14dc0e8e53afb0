#include "textflag.h"

// The AVX2 blockKernels behind gradBlocks (grad.go states their contract).
// Lane i of every YMM register is coordinate i of the current block. A
// block's results stay in registers until none of them is NaN; rows are
// read and written where they lie, with unaligned loads and stores.
//
// Registers, shared by the two kernels:
//	AX h, BX r, CX t, DX gh, SI gr, DI gt, each 32 bytes further per block
//	R8   ComplEx: d in bytes, from a row's real half to its imaginary half
//	R9   blocks left
//	R10  coordinates finished, the return value
//	Y15  dScore in every lane
//
// Every vector instruction is VEX-encoded: a legacy SSE instruction after a
// YMM write costs a state transition (MOVL into X14 here read about 200 ns
// per call on a Xeon VM).

// TERM(a, b, c, e, op, dst, acc) sets dst = acc + dScore·(a·b op c·e), op
// VADDPS or VSUBPS, as the Go loop's `acc += dScore * (a*b op c*e)` does.
#define TERM(a, b, c, e, op, dst, acc) \
	VMULPS b, a, dst; \
	VMULPS e, c, Y12; \
	op     Y12, dst, dst; \
	VMULPS Y15, dst, dst; \
	VADDPS acc, dst, dst

// func complExGradAVX2(h, r, t []float32, dScore float32, gh, gr, gt []float32) int
TEXT ·complExGradAVX2(SB), NOSPLIT, $0-160
	MOVQ h_base+0(FP), AX
	MOVQ h_len+8(FP), R8
	MOVQ r_base+24(FP), BX
	MOVQ t_base+48(FP), CX
	MOVQ gh_base+80(FP), DX
	MOVQ gr_base+104(FP), SI
	MOVQ gt_base+128(FP), DI
	XORQ R10, R10
	SHRQ $1, R8
	MOVQ R8, R9
	SHLQ $2, R8
	SHRQ $3, R9
	JZ   done
	VBROADCASTSS dScore+72(FP), Y15

complexBlock:
	// Y0..Y5 = hR, hI, rR, rI, tR, tI.
	VMOVUPS (AX), Y0
	VMOVUPS (AX)(R8*1), Y1
	VMOVUPS (BX), Y2
	VMOVUPS (BX)(R8*1), Y3
	VMOVUPS (CX), Y4
	VMOVUPS (CX)(R8*1), Y5

	TERM(Y2, Y4, Y3, Y5, VADDPS, Y6, (DX))         // gh[i]   += dScore * (rR*tR + rI*tI)
	TERM(Y2, Y5, Y3, Y4, VSUBPS, Y7, (DX)(R8*1))   // gh[d+i] += dScore * (rR*tI - rI*tR)
	TERM(Y0, Y4, Y1, Y5, VADDPS, Y8, (SI))         // gr[i]   += dScore * (hR*tR + hI*tI)
	TERM(Y0, Y5, Y1, Y4, VSUBPS, Y9, (SI)(R8*1))   // gr[d+i] += dScore * (hR*tI - hI*tR)
	TERM(Y0, Y2, Y1, Y3, VSUBPS, Y10, (DI))        // gt[i]   += dScore * (hR*rR - hI*rI)
	TERM(Y1, Y2, Y0, Y3, VADDPS, Y11, (DI)(R8*1))  // gt[d+i] += dScore * (hI*rR + hR*rI)

	// Any NaN among the six results hands the block back unwritten.
	VCMPPS $3, Y7, Y6, Y12
	VCMPPS $3, Y9, Y8, Y13
	VORPS  Y13, Y12, Y12
	VCMPPS $3, Y11, Y10, Y13
	VORPS  Y13, Y12, Y12
	VPTEST Y12, Y12
	JNZ    handBack

	VMOVUPS Y6, (DX)
	VMOVUPS Y7, (DX)(R8*1)
	VMOVUPS Y8, (SI)
	VMOVUPS Y9, (SI)(R8*1)
	VMOVUPS Y10, (DI)
	VMOVUPS Y11, (DI)(R8*1)
	ADDQ    $32, AX
	ADDQ    $32, BX
	ADDQ    $32, CX
	ADDQ    $32, DX
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $8, R10
	DECQ    R9
	JNZ     complexBlock

handBack:
	VZEROUPPER

done:
	MOVQ R10, ret+152(FP)
	RET

// func transEL1GradAVX2(h, r, t []float32, dScore float32, gh, gr, gt []float32) int
TEXT ·transEL1GradAVX2(SB), NOSPLIT, $0-160
	MOVQ h_base+0(FP), AX
	MOVQ h_len+8(FP), R9
	MOVQ r_base+24(FP), BX
	MOVQ t_base+48(FP), CX
	MOVQ gh_base+80(FP), DX
	MOVQ gr_base+104(FP), SI
	MOVQ gt_base+128(FP), DI
	XORQ R10, R10
	SHRQ $3, R9
	JZ   done
	VBROADCASTSS dScore+72(FP), Y15
	MOVL         $0x3f800000, R11
	VMOVD        R11, X14         // VEX: no SSE instruction after a YMM write
	VPBROADCASTD X14, Y14         // 1.0 in every lane
	VXORPS       Y13, Y13, Y13    // +0 in every lane

transEBlock:
	// d = h + r - t, then the sign as the Go loop's b2i(d > 0) - b2i(d < 0):
	// 1.0 or +0 from each comparison (false for a NaN d), their difference
	// 1, -1 or +0.
	VMOVUPS (AX), Y0
	VADDPS  (BX), Y0, Y0
	VSUBPS  (CX), Y0, Y0
	VCMPPS  $0x11, Y0, Y13, Y1    // 0 < d, quiet
	VCMPPS  $0x11, Y13, Y0, Y2    // d < 0, quiet
	VANDPS  Y14, Y1, Y1
	VANDPS  Y14, Y2, Y2
	VSUBPS  Y2, Y1, Y1
	VMULPS  Y15, Y1, Y1           // v = dScore * g
	VMOVUPS (DX), Y3
	VSUBPS  Y1, Y3, Y3            // gh[i] - v
	VMOVUPS (SI), Y4
	VSUBPS  Y1, Y4, Y4            // gr[i] - v
	VADDPS  (DI), Y1, Y5          // gt[i] + v

	// Any NaN among the three results hands the block back unwritten.
	VCMPPS $3, Y4, Y3, Y6
	VCMPPS $3, Y5, Y5, Y7
	VORPS  Y7, Y6, Y6
	VPTEST Y6, Y6
	JNZ    handBack

	VMOVUPS Y3, (DX)
	VMOVUPS Y4, (SI)
	VMOVUPS Y5, (DI)
	ADDQ    $32, AX
	ADDQ    $32, BX
	ADDQ    $32, CX
	ADDQ    $32, DX
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $8, R10
	DECQ    R9
	JNZ     transEBlock

handBack:
	VZEROUPPER

done:
	MOVQ R10, ret+152(FP)
	RET
