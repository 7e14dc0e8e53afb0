#include "textflag.h"

// ComplEx's eight-row kernels behind Sweep.ScoreEach. Each scores a run of
// whole eight-row blocks; lane i of every YMM register is candidate row i of
// the current block, and its accumulator takes that row's terms one
// coordinate at a time, in index order, with ComplEx.Score's float32
// operations in Score's order and no FMA, so every lane computes exactly
// what Score does. The rows lie anywhere: each block reads its eight row
// pointers from the rows slice headers and loads where they point.
//
// Registers, shared by the two kernels:
//	DI   out, eight floats further per block
//	SI   the block's first slice header, 24 bytes per row
//	AX, BX, R8, R9      rows 0-3 of the block
//	R10, R11, R14, R15  rows 4-7
//	R12  q: coordinate c at 16c bytes, so at (R12)(R13*4)
//	R13  the column's byte offset in a row's real half
//	DX   the same in the imaginary half, R13 + 4d
//	CX   blocks left
//	Y0   the eight accumulators
// q holds 4d floats, so its length is also the real half's size in bytes
// (4d): the imaginary offset, and where R13 stops.

// ROWS loads the block's eight row pointers.
#define ROWS \
	MOVQ 0(SI), AX; \
	MOVQ 24(SI), BX; \
	MOVQ 48(SI), R8; \
	MOVQ 72(SI), R9; \
	MOVQ 96(SI), R10; \
	MOVQ 120(SI), R11; \
	MOVQ 144(SI), R14; \
	MOVQ 168(SI), R15

// TILE(idx, o1, o2, o3, o4) loads four columns of the eight rows at byte
// offset idx and transposes them, as rows_amd64.s's TILE does: afterwards
// o1..o4 hold those columns, lane i = row i. Y9..Y12 are scratch.
#define TILE(idx, o1, o2, o3, o4) \
	VBROADCASTF128 (AX)(idx*1), o1; \
	VINSERTF128    $1, (R10)(idx*1), o1, o1; \
	VBROADCASTF128 (BX)(idx*1), o2; \
	VINSERTF128    $1, (R11)(idx*1), o2, o2; \
	VBROADCASTF128 (R8)(idx*1), o3; \
	VINSERTF128    $1, (R14)(idx*1), o3, o3; \
	VBROADCASTF128 (R9)(idx*1), o4; \
	VINSERTF128    $1, (R15)(idx*1), o4, o4; \
	VUNPCKLPS      o2, o1, Y9; \
	VUNPCKHPS      o2, o1, Y10; \
	VUNPCKLPS      o4, o3, Y11; \
	VUNPCKHPS      o4, o3, Y12; \
	VSHUFPS        $0x44, Y11, Y9, o1; \
	VSHUFPS        $0xEE, Y11, Y9, o2; \
	VSHUFPS        $0x44, Y12, Y10, o3; \
	VSHUFPS        $0xEE, Y12, Y10, o4

// TAILCOL(re, im, off) adds one coordinate of tails: q = [a, b, c, e] =
// [hR·rR, hI·rR, hR·rI, hI·rI] at byte offset off, re/im the candidates'
// tR/tI, and acc += a·tR + b·tI + c·tI − e·tR, left to right.
#define TAILCOL(re, im, off) \
	VBROADCASTSS off+0(R12)(R13*4), Y9; \
	VMULPS       re, Y9, Y9; \
	VBROADCASTSS off+4(R12)(R13*4), Y10; \
	VMULPS       im, Y10, Y10; \
	VADDPS       Y10, Y9, Y9; \
	VBROADCASTSS off+8(R12)(R13*4), Y10; \
	VMULPS       im, Y10, Y10; \
	VADDPS       Y10, Y9, Y9; \
	VBROADCASTSS off+12(R12)(R13*4), Y10; \
	VMULPS       re, Y10, Y10; \
	VSUBPS       Y10, Y9, Y9; \
	VADDPS       Y9, Y0, Y0

// HEADCOL(re, im, off) adds one coordinate of heads: q = [rR, rI, tR, tI]
// at byte offset off, re/im the candidates' nR/nI, and
// acc += (nR·rR)·tR + (nI·rR)·tI + (nR·rI)·tI − (nI·rI)·tR, left to right:
// Score multiplies the candidate in first, so all eight products are here.
#define HEADCOL(re, im, off) \
	VBROADCASTSS off+0(R12)(R13*4), Y9; \
	VBROADCASTSS off+8(R12)(R13*4), Y11; \
	VBROADCASTSS off+12(R12)(R13*4), Y12; \
	VMULPS       re, Y9, Y10; \
	VMULPS       Y11, Y10, Y10; \
	VMULPS       im, Y9, Y9; \
	VMULPS       Y12, Y9, Y9; \
	VADDPS       Y9, Y10, Y10; \
	VBROADCASTSS off+4(R12)(R13*4), Y9; \
	VMULPS       re, Y9, Y13; \
	VMULPS       Y12, Y13, Y13; \
	VADDPS       Y13, Y10, Y10; \
	VMULPS       im, Y9, Y9; \
	VMULPS       Y11, Y9, Y9; \
	VSUBPS       Y9, Y10, Y10; \
	VADDPS       Y10, Y0, Y0

// START sets up the block loop; BLOCK starts a block at column 0; STEP
// moves four columns on and loops while the real half lasts; NEXT stores
// the block's eight scores and loops while blocks are left.
#define START \
	MOVQ out_base+0(FP), DI; \
	MOVQ out_len+8(FP), CX; \
	MOVQ q_base+24(FP), R12; \
	MOVQ rows_base+48(FP), SI; \
	SHRQ $3, CX

#define BLOCK \
	ROWS; \
	VXORPS Y0, Y0, Y0; \
	XORQ   R13, R13; \
	MOVQ   q_len+32(FP), DX

#define STEP \
	ADDQ $16, R13; \
	ADDQ $16, DX; \
	CMPQ R13, q_len+32(FP)

#define NEXT \
	VMOVUPS Y0, (DI); \
	ADDQ    $32, DI; \
	ADDQ    $192, SI; \
	DECQ    CX

// func complExTailsEach(out, q []float32, rows [][]float32)
TEXT ·complExTailsEach(SB), NOSPLIT, $0-72
	START
	JZ done

block:
	BLOCK

cols:
	TILE(R13, Y1, Y2, Y3, Y4)
	TILE(DX, Y5, Y6, Y7, Y8)
	TAILCOL(Y1, Y5, 0)
	TAILCOL(Y2, Y6, 16)
	TAILCOL(Y3, Y7, 32)
	TAILCOL(Y4, Y8, 48)
	STEP
	JNE cols
	NEXT
	JNZ block
	VZEROUPPER

done:
	RET

// func complExHeadsEach(out, q []float32, rows [][]float32)
TEXT ·complExHeadsEach(SB), NOSPLIT, $0-72
	START
	JZ done

block:
	BLOCK

cols:
	TILE(R13, Y1, Y2, Y3, Y4)
	TILE(DX, Y5, Y6, Y7, Y8)
	HEADCOL(Y1, Y5, 0)
	HEADCOL(Y2, Y6, 16)
	HEADCOL(Y3, Y7, 32)
	HEADCOL(Y4, Y8, 48)
	STEP
	JNE cols
	NEXT
	JNZ block
	VZEROUPPER

done:
	RET
