#include "textflag.h"

// SSE2 register tiles for tiled.go; see the Go bodies fTileGo and
// qTileGo for the semantics and tile_amd64.go for the contracts. Both
// tiles keep one accumulator register per column (X0–X3, each holding
// the tile's mr = 4 rows), walk k in ascending order, and finish with
// TRANSPOSE_STORE, which turns the four column registers into four row
// vectors and stores them at out[r*w : r*w+4].

// TRANSPOSE_STORE transposes the 4×4 tile of 32-bit lanes in X0–X3
// (register c holds column c) and stores row r at DX + r·R8 bytes. The
// moves are bit-for-bit, so it serves float32 and int32 tiles alike.
#define TRANSPOSE_STORE \
	MOVOU      X0, X4; \
	PUNPCKLLQ  X1, X0; \
	PUNPCKHLQ  X1, X4; \
	MOVOU      X2, X5; \
	PUNPCKLLQ  X3, X2; \
	PUNPCKHLQ  X3, X5; \
	MOVOU      X0, X1; \
	PUNPCKLQDQ X2, X0; \
	PUNPCKHQDQ X2, X1; \
	MOVOU      X4, X3; \
	PUNPCKLQDQ X5, X4; \
	PUNPCKHQDQ X5, X3; \
	MOVOU      X0, (DX); \
	ADDQ       R8, DX; \
	MOVOU      X1, (DX); \
	ADDQ       R8, DX; \
	MOVOU      X4, (DX); \
	ADDQ       R8, DX; \
	MOVOU      X3, (DX)

// func fTile(panel [][mr]float32, cols []float32, out []float32, w int)
TEXT ·fTile(SB), NOSPLIT, $0-80
	MOVQ panel_base+0(FP), SI
	MOVQ panel_len+8(FP), CX  // k
	MOVQ cols_base+24(FP), DI // column 0; columns are 4k bytes apart
	MOVQ out_base+48(FP), DX
	MOVQ w+72(FP), R8
	SHLQ $2, R8               // row stride in bytes
	LEAQ (DI)(CX*4), R9       // column 1
	LEAQ (R9)(CX*4), R10      // column 2
	LEAQ (R10)(CX*4), R11     // column 3
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX
	TESTQ CX, CX
	JEQ   fdone

floop:
	// X8 = the panel's four rows at step l; each column's b[l] is
	// broadcast, multiplied lane-wise (one MULSS per row) and added to
	// that column's accumulator (one ADDSS per row).
	MOVUPS (SI), X8
	MOVSS  (DI)(AX*4), X4
	MOVSS  (R9)(AX*4), X5
	MOVSS  (R10)(AX*4), X6
	MOVSS  (R11)(AX*4), X7
	SHUFPS $0x00, X4, X4
	SHUFPS $0x00, X5, X5
	SHUFPS $0x00, X6, X6
	SHUFPS $0x00, X7, X7
	MULPS  X8, X4
	MULPS  X8, X5
	MULPS  X8, X6
	MULPS  X8, X7
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	ADDQ   $16, SI
	INCQ   AX
	CMPQ   AX, CX
	JNE    floop

fdone:
	TRANSPOSE_STORE
	RET

// func qTile(panel [][mr][2]uint8, words []uint32, out []int32, w int)
TEXT ·qTile(SB), NOSPLIT, $0-80
	MOVQ panel_base+0(FP), SI
	MOVQ panel_len+8(FP), CX  // k pairs
	MOVQ words_base+24(FP), DI // column 0; columns are 4·pairs bytes apart
	MOVQ out_base+48(FP), DX
	MOVQ w+72(FP), R8
	SHLQ $2, R8
	LEAQ (DI)(CX*4), R9
	LEAQ (R9)(CX*4), R10
	LEAQ (R10)(CX*4), R11
	PXOR X0, X0
	PXOR X1, X1
	PXOR X2, X2
	PXOR X3, X3
	PXOR X9, X9
	XORQ AX, AX
	TESTQ CX, CX
	JEQ   qdone

qloop:
	// X8 = the panel's pair step widened to int16: lane r holds rows r's
	// (a[2l], a[2l+1]). Each column's word (b[2l], b[2l+1]) is broadcast,
	// and PMADDWD leaves a[2l]·b[2l] + a[2l+1]·b[2l+1] ≤ 2·255² in lane r.
	MOVQ      (SI), X8
	PUNPCKLBW X9, X8
	MOVL      (DI)(AX*4), X4
	MOVL      (R9)(AX*4), X5
	MOVL      (R10)(AX*4), X6
	MOVL      (R11)(AX*4), X7
	PSHUFD    $0x00, X4, X4
	PSHUFD    $0x00, X5, X5
	PSHUFD    $0x00, X6, X6
	PSHUFD    $0x00, X7, X7
	PMADDWL   X8, X4
	PMADDWL   X8, X5
	PMADDWL   X8, X6
	PMADDWL   X8, X7
	PADDL     X4, X0
	PADDL     X5, X1
	PADDL     X6, X2
	PADDL     X7, X3
	ADDQ      $8, SI
	INCQ      AX
	CMPQ      AX, CX
	JNE       qloop

qdone:
	TRANSPOSE_STORE
	RET
