#include "textflag.h"

// Register tiles for tiled.go; see the Go bodies fTileGo and qTileGo for
// the semantics and tile_amd64.go for the contracts. Every tile keeps one
// accumulator register per column, walks k in ascending order with one
// multiply and one add per lane and step (never a fused multiply-add),
// and ends with a transpose that turns the column registers into row
// vectors stored at out[r*w : r*w+nr].
//
// The panels are mr = 8 rows high, and the tiles hold all eight rows in
// one YMM register per column.

// TRANSPOSE8_STORE transposes the 8×4 tile of 32-bit lanes in Y0–Y3
// (register c holds column c, lane r row r) and stores row r at
// DX + r·R8 bytes: within each 128-bit half it is the 4×4 interleave of
// 32- then 64-bit lanes, leaving rows r and r+4 in the low and high
// halves of one register. The moves are bit-for-bit, so it serves
// float32 and int32 tiles alike.
#define TRANSPOSE8_STORE \
	VUNPCKLPS    Y1, Y0, Y4; \
	VUNPCKHPS    Y1, Y0, Y5; \
	VUNPCKLPS    Y3, Y2, Y6; \
	VUNPCKHPS    Y3, Y2, Y7; \
	VUNPCKLPD    Y6, Y4, Y0; \
	VUNPCKHPD    Y6, Y4, Y1; \
	VUNPCKLPD    Y7, Y5, Y2; \
	VUNPCKHPD    Y7, Y5, Y3; \
	VMOVUPS      X0, (DX); \
	VEXTRACTF128 $1, Y0, (DX)(R8*4); \
	ADDQ         R8, DX; \
	VMOVUPS      X1, (DX); \
	VEXTRACTF128 $1, Y1, (DX)(R8*4); \
	ADDQ         R8, DX; \
	VMOVUPS      X2, (DX); \
	VEXTRACTF128 $1, Y2, (DX)(R8*4); \
	ADDQ         R8, DX; \
	VMOVUPS      X3, (DX); \
	VEXTRACTF128 $1, Y3, (DX)(R8*4)

// func fTileAVX2(panel [][mr]float32, cols []float32, out []float32, w int)
TEXT ·fTileAVX2(SB), NOSPLIT, $0-80
	MOVQ panel_base+0(FP), SI
	MOVQ panel_len+8(FP), CX  // k
	MOVQ cols_base+24(FP), DI // column 0; columns are 4k bytes apart
	MOVQ out_base+48(FP), DX
	MOVQ w+72(FP), R8
	SHLQ $2, R8               // row stride in bytes
	LEAQ (DI)(CX*4), R9       // column 1
	LEAQ (R9)(CX*4), R10      // column 2
	LEAQ (R10)(CX*4), R11     // column 3
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX
	TESTQ  CX, CX
	JEQ    favxdone

favxloop:
	// Y8 = the panel's eight rows at step l; each column's b[l] is
	// broadcast, multiplied lane-wise (one binary32 multiply per row) and
	// added to that column's accumulator (one add per row).
	VMOVUPS      (SI), Y8
	VBROADCASTSS (DI)(AX*4), Y4
	VBROADCASTSS (R9)(AX*4), Y5
	VBROADCASTSS (R10)(AX*4), Y6
	VBROADCASTSS (R11)(AX*4), Y7
	VMULPS       Y8, Y4, Y4
	VMULPS       Y8, Y5, Y5
	VMULPS       Y8, Y6, Y6
	VMULPS       Y8, Y7, Y7
	VADDPS       Y4, Y0, Y0
	VADDPS       Y5, Y1, Y1
	VADDPS       Y6, Y2, Y2
	VADDPS       Y7, Y3, Y3
	ADDQ         $32, SI
	INCQ         AX
	CMPQ         AX, CX
	JNE          favxloop

favxdone:
	TRANSPOSE8_STORE
	VZEROUPPER
	RET

// func qTileAVX2(panel [][mr][2]uint8, words []uint32, out []int32, w int)
TEXT ·qTileAVX2(SB), NOSPLIT, $0-80
	MOVQ panel_base+0(FP), SI
	MOVQ panel_len+8(FP), CX   // k pairs
	MOVQ words_base+24(FP), DI // column 0; columns are 4·pairs bytes apart
	MOVQ out_base+48(FP), DX
	MOVQ w+72(FP), R8
	SHLQ $2, R8
	LEAQ (DI)(CX*4), R9
	LEAQ (R9)(CX*4), R10
	LEAQ (R10)(CX*4), R11
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  AX, AX
	TESTQ CX, CX
	JEQ   qavxdone

qavxloop:
	// Y8 = the panel's pair step widened to int16: lane r holds row r's
	// (a[2l], a[2l+1]). Each column's word (b[2l], b[2l+1]) is broadcast,
	// and VPMADDWD leaves a[2l]·b[2l] + a[2l+1]·b[2l+1] ≤ 2·255² in lane r.
	VPMOVZXBW    (SI), Y8
	VPBROADCASTD (DI)(AX*4), Y4
	VPBROADCASTD (R9)(AX*4), Y5
	VPBROADCASTD (R10)(AX*4), Y6
	VPBROADCASTD (R11)(AX*4), Y7
	VPMADDWD     Y8, Y4, Y4
	VPMADDWD     Y8, Y5, Y5
	VPMADDWD     Y8, Y6, Y6
	VPMADDWD     Y8, Y7, Y7
	VPADDD       Y4, Y0, Y0
	VPADDD       Y5, Y1, Y1
	VPADDD       Y6, Y2, Y2
	VPADDD       Y7, Y3, Y3
	ADDQ         $16, SI
	INCQ         AX
	CMPQ         AX, CX
	JNE          qavxloop

qavxdone:
	TRANSPOSE8_STORE
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// CPUID leaf 7 reports AVX2 (EBX bit 5), but the YMM registers are only
// usable when the OS saves their upper halves on a context switch: CPUID
// leaf 1 must report OSXSAVE (ECX bit 27) and AVX (bit 28), and XCR0,
// read by XGETBV (only legal under OSXSAVE), must have its SSE (bit 1)
// and AVX (bit 2) state bits set.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID              // EAX = the highest standard leaf
	CMPL  AX, $7
	JLT   nox
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   nox
	XORL  CX, CX
	XGETBV             // EDX:EAX = XCR0
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   nox
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX
	JCC   nox
	MOVB  $1, ret+0(FP)

nox:
	RET
