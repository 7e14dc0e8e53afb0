#include "textflag.h"

// The block kernels behind scoreRows on AVX2 machines. Each scores a run of
// whole eight-row blocks against one query of width d, d a multiple of 8:
// out[i] is the reduction of q against row i. Lane i of one YMM accumulator
// is row i's running sum, and it takes that row's terms one column at a
// time, in index order, with the per-row function's float32 operations —
// so every lane computes exactly what the per-row function does. The rows
// are read where they lie, with unaligned loads.
//
// Registers, shared by the three kernels:
//	DI   out, eight floats further per block
//	SI   q
//	BX   the block's first row
//	DX   d; R8 one row in bytes (4d), R9 three rows
//	CX   blocks left
//	R10  rows 0-3 at the current column, R11 rows 4-7, R12 q there
//	R13  columns left in the block
//	Y0   the eight accumulators
//	Y15  the ℓ1 sign mask

// TILE(off) loads four columns of the eight rows at byte offset off from
// the current column and transposes them: afterwards Y1..Y4 hold those
// columns, lane i = row i. Rows i and i+4 share a load register (low and
// high 128-bit half), so the transpose is two in-lane shuffle rounds.
#define TILE(off) \
	VMOVUPS     off(R10), X1; \
	VINSERTF128 $1, off(R11), Y1, Y1; \
	VMOVUPS     off(R10)(R8*1), X2; \
	VINSERTF128 $1, off(R11)(R8*1), Y2, Y2; \
	VMOVUPS     off(R10)(R8*2), X3; \
	VINSERTF128 $1, off(R11)(R8*2), Y3, Y3; \
	VMOVUPS     off(R10)(R9*1), X4; \
	VINSERTF128 $1, off(R11)(R9*1), Y4, Y4; \
	VUNPCKLPS   Y2, Y1, Y5; \
	VUNPCKHPS   Y2, Y1, Y6; \
	VUNPCKLPS   Y4, Y3, Y7; \
	VUNPCKHPS   Y4, Y3, Y8; \
	VSHUFPS     $0x44, Y7, Y5, Y1; \
	VSHUFPS     $0xEE, Y7, Y5, Y2; \
	VSHUFPS     $0x44, Y8, Y6, Y3; \
	VSHUFPS     $0xEE, Y8, Y6, Y4

// One column into the accumulators, q[c] broadcast from byte offset off:
// ℓ1 adds |q[c]-row[c]|, the sign bit cleared as in l1Dist4; squared ℓ2
// adds (q[c]-row[c])²; dot adds q[c]·row[c], never fused into an FMA.
#define L1COL(col, off) \
	VBROADCASTSS off(R12), Y9; \
	VSUBPS       col, Y9, Y9; \
	VANDPS       Y15, Y9, Y9; \
	VADDPS       Y9, Y0, Y0

#define L2COL(col, off) \
	VBROADCASTSS off(R12), Y9; \
	VSUBPS       col, Y9, Y9; \
	VMULPS       Y9, Y9, Y9; \
	VADDPS       Y9, Y0, Y0

#define DOTCOL(col, off) \
	VBROADCASTSS off(R12), Y9; \
	VMULPS       col, Y9, Y9; \
	VADDPS       Y9, Y0, Y0

// COLS8(COL) adds the next eight columns into the accumulators with the
// kernel's column macro COL.
#define COLS8(COL) \
	TILE(0); \
	COL(Y1, 0); \
	COL(Y2, 4); \
	COL(Y3, 8); \
	COL(Y4, 12); \
	TILE(16); \
	COL(Y1, 16); \
	COL(Y2, 20); \
	COL(Y3, 24); \
	COL(Y4, 28)

// STRIDES sets R8 and R9 and turns CX into blocks; BLOCK starts a block;
// NEXT stores it and counts it off. The column loop between them steps
// eight columns at a time.
#define STRIDES \
	MOVQ DX, R8; \
	SHLQ $2, R8; \
	LEAQ (R8)(R8*2), R9; \
	SHRQ $3, CX

#define BLOCK \
	VXORPS Y0, Y0, Y0; \
	MOVQ   BX, R10; \
	LEAQ   (BX)(R8*4), R11; \
	MOVQ   SI, R12; \
	MOVQ   DX, R13

#define NEXT \
	VMOVUPS Y0, (DI); \
	ADDQ    $32, DI; \
	LEAQ    (BX)(R8*8), BX; \
	DECQ    CX

#define STEP \
	ADDQ $32, R10; \
	ADDQ $32, R11; \
	ADDQ $32, R12; \
	SUBQ $8, R13

// func l1DistBlocks(out, q, rows []float32)
TEXT ·l1DistBlocks(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ q_base+24(FP), SI
	MOVQ q_len+32(FP), DX
	MOVQ rows_base+48(FP), BX
	STRIDES
	JZ   done
	MOVL         $0x7fffffff, AX
	MOVL         AX, X15
	VPBROADCASTD X15, Y15

block:
	BLOCK
	TESTQ R13, R13
	JZ    store

cols:
	COLS8(L1COL)
	STEP
	JNZ cols

store:
	NEXT
	JNZ block
	VZEROUPPER

done:
	RET

// func squaredL2DistBlocks(out, q, rows []float32)
TEXT ·squaredL2DistBlocks(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ q_base+24(FP), SI
	MOVQ q_len+32(FP), DX
	MOVQ rows_base+48(FP), BX
	STRIDES
	JZ done

block:
	BLOCK
	TESTQ R13, R13
	JZ    store

cols:
	COLS8(L2COL)
	STEP
	JNZ cols

store:
	NEXT
	JNZ block
	VZEROUPPER

done:
	RET

// func dotBlocks(out, q, rows []float32)
TEXT ·dotBlocks(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ q_base+24(FP), SI
	MOVQ q_len+32(FP), DX
	MOVQ rows_base+48(FP), BX
	STRIDES
	JZ done

block:
	BLOCK
	TESTQ R13, R13
	JZ    store

cols:
	COLS8(DOTCOL)
	STEP
	JNZ cols

store:
	NEXT
	JNZ block
	VZEROUPPER

done:
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
