#include "textflag.h"

// Register tiles and run packs for tiled.go; see the Go bodies fTileGo,
// qTileGo, packRunQGo and widenRunGo for the semantics and tile_amd64.go
// for the contracts. Every tile keeps one
// accumulator register per column, walks k in ascending order with one
// multiply and one add per lane and step (never a fused multiply-add),
// and ends with a transpose that turns the column registers into row
// vectors stored at out[r*w : r*w+nr].
//
// The panels are mr = 8 rows high, and the tiles hold all eight rows in
// one YMM register per column. A column panel holds nr = 4 columns per k
// step, 16 bytes, so each step's four broadcasts read one 16-byte slot.

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

// func fTileAVX2(panel [][mr]float32, cols [][nr]float32, out []float32, w int)
TEXT ·fTileAVX2(SB), NOSPLIT, $0-80
	MOVQ panel_base+0(FP), SI
	MOVQ panel_len+8(FP), CX  // k
	MOVQ cols_base+24(FP), DI // the column panel: nr floats per k step
	MOVQ out_base+48(FP), DX
	MOVQ w+72(FP), R8
	SHLQ $2, R8               // row stride in bytes
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ  CX, CX
	JEQ    favxdone

favxloop:
	// Y8 = the panel's eight rows at step l; each column's b[l] is
	// broadcast, multiplied lane-wise (one binary32 multiply per row) and
	// added to that column's accumulator (one add per row).
	VMOVUPS      (SI), Y8
	VBROADCASTSS (DI), Y4
	VBROADCASTSS 4(DI), Y5
	VBROADCASTSS 8(DI), Y6
	VBROADCASTSS 12(DI), Y7
	VMULPS       Y8, Y4, Y4
	VMULPS       Y8, Y5, Y5
	VMULPS       Y8, Y6, Y6
	VMULPS       Y8, Y7, Y7
	VADDPS       Y4, Y0, Y0
	VADDPS       Y5, Y1, Y1
	VADDPS       Y6, Y2, Y2
	VADDPS       Y7, Y3, Y3
	ADDQ         $32, SI
	ADDQ         $16, DI
	DECQ         CX
	JNE          favxloop

favxdone:
	TRANSPOSE8_STORE
	VZEROUPPER
	RET

// func qTileAVX2(panel [][mr][2]uint8, words [][nr]uint32, out []int32, w int)
TEXT ·qTileAVX2(SB), NOSPLIT, $0-80
	MOVQ panel_base+0(FP), SI
	MOVQ panel_len+8(FP), CX   // k pairs
	MOVQ words_base+24(FP), DI // the word panel: nr words per pair step
	MOVQ out_base+48(FP), DX
	MOVQ w+72(FP), R8
	SHLQ $2, R8
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	TESTQ CX, CX
	JEQ   qavxdone

qavxloop:
	// Y8 = the panel's pair step widened to int16: lane r holds row r's
	// (a[2l], a[2l+1]). Each column's word (b[2l], b[2l+1]) is broadcast,
	// and VPMADDWD leaves a[2l]·b[2l] + a[2l+1]·b[2l+1] ≤ 2·255² in lane r.
	VPMOVZXBW    (SI), Y8
	VPBROADCASTD (DI), Y4
	VPBROADCASTD 4(DI), Y5
	VPBROADCASTD 8(DI), Y6
	VPBROADCASTD 12(DI), Y7
	VPMADDWD     Y8, Y4, Y4
	VPMADDWD     Y8, Y5, Y5
	VPMADDWD     Y8, Y6, Y6
	VPMADDWD     Y8, Y7, Y7
	VPADDD       Y4, Y0, Y0
	VPADDD       Y5, Y1, Y1
	VPADDD       Y6, Y2, Y2
	VPADDD       Y7, Y3, Y3
	ADDQ         $16, SI
	ADDQ         $16, DI
	DECQ         CX
	JNE          qavxloop

qavxdone:
	TRANSPOSE8_STORE
	VZEROUPPER
	RET

// func packRunQAVX2(panel [][nr]uint32, src []uint8, off []int32, sw int) [nr]int32
//
// Per pair step: the two taps' runs are widened to words and interleaved
// into the nr words a | b<<16, and VPMADDWD against ones adds a + b into
// each column's sum. At sw = 1 a run is the nr bytes VMOVD loads; at
// sw = 2 it is the even bytes of the 8 VMOVQ loads, which VPAND with
// 0x00ff widens to words in place.
TEXT ·packRunQAVX2(SB), NOSPLIT, $0-96
	MOVQ         panel_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         off_base+48(FP), BX
	MOVQ         off_len+56(FP), CX      // k
	VPXOR        X0, X0, X0
	VPXOR        X1, X1, X1              // the column sums
	MOVL         $0x00010001, AX
	VMOVD        AX, X2
	VPBROADCASTD X2, X2                  // int16 ones
	MOVQ         CX, R8
	SHRQ         $1, R8                  // pair steps
	CMPQ         sw+72(FP), $2
	JEQ          rq2
	TESTQ        R8, R8
	JEQ          rqodd

rqloop:
	MOVLQSX    (BX), R9
	MOVLQSX    4(BX), R10
	VMOVD      (SI)(R9*1), X3
	VMOVD      (SI)(R10*1), X4
	VPUNPCKLBW X0, X3, X3
	VPUNPCKLBW X0, X4, X4
	VPUNPCKLWD X4, X3, X3
	VMOVDQU    X3, (DI)
	VPMADDWD   X2, X3, X3
	VPADDD     X3, X1, X1
	ADDQ       $8, BX
	ADDQ       $16, DI
	DECQ       R8
	JNE        rqloop

rqodd:
	TESTQ      $1, CX
	JEQ        rqdone
	MOVLQSX    (BX), R9
	VMOVD      (SI)(R9*1), X3
	VPUNPCKLBW X0, X3, X3
	VPUNPCKLWD X0, X3, X3
	VMOVDQU    X3, (DI)
	VPADDD     X3, X1, X1

rqdone:
	VMOVDQU X1, ret+80(FP)
	RET

rq2:
	MOVQ         $0x00ff00ff00ff00ff, AX
	VMOVQ        AX, X5
	VPBROADCASTQ X5, X5                  // the even bytes, as words
	TESTQ        R8, R8
	JEQ          rq2odd

rq2loop:
	MOVLQSX    (BX), R9
	MOVLQSX    4(BX), R10
	VMOVQ      (SI)(R9*1), X3
	VMOVQ      (SI)(R10*1), X4
	VPAND      X5, X3, X3
	VPAND      X5, X4, X4
	VPUNPCKLWD X4, X3, X3
	VMOVDQU    X3, (DI)
	VPMADDWD   X2, X3, X3
	VPADDD     X3, X1, X1
	ADDQ       $8, BX
	ADDQ       $16, DI
	DECQ       R8
	JNE        rq2loop

rq2odd:
	TESTQ      $1, CX
	JEQ        rqdone
	MOVLQSX    (BX), R9
	VMOVQ      (SI)(R9*1), X3
	VPAND      X5, X3, X3
	VPUNPCKLWD X0, X3, X3
	VMOVDQU    X3, (DI)
	VPADDD     X3, X1, X1
	JMP        rqdone

// func widenRunAVX2(panel [][nr]float32, src []uint8, off []int32, lut *[256]float32, sw int)
//
// Two steps at a time: both taps' runs are widened to int32 indexes in
// one YMM register and one gather reads their table entries, which are
// the two steps' [nr]float32, in order. At sw = 1 a run is the nr bytes
// VPMOVZXBD widens; at sw = 2 VPMOVZXWD widens 8 bytes as 4 words and
// VPAND with 0xff keeps each word's even byte.
TEXT ·widenRunAVX2(SB), NOSPLIT, $0-88
	MOVQ panel_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ off_base+48(FP), BX
	MOVQ off_len+56(FP), CX   // k
	MOVQ lut+72(FP), DX
	MOVQ CX, R8
	SHRQ $1, R8
	CMPQ sw+80(FP), $2
	JEQ  wl2
	TESTQ R8, R8
	JEQ  wlodd

wlloop:
	MOVLQSX      (BX), R9
	MOVLQSX      4(BX), R10
	VPMOVZXBD    (SI)(R9*1), X3
	VPMOVZXBD    (SI)(R10*1), X4
	VINSERTI128  $1, X4, Y3, Y3
	VPCMPEQD     Y5, Y5, Y5
	VPGATHERDD   Y5, (DX)(Y3*4), Y6
	VMOVDQU      Y6, (DI)
	ADDQ         $8, BX
	ADDQ         $32, DI
	DECQ         R8
	JNE          wlloop

wlodd:
	TESTQ      $1, CX
	JEQ        wldone
	MOVLQSX    (BX), R9
	VPMOVZXBD  (SI)(R9*1), X3
	VPCMPEQD   X5, X5, X5
	VPGATHERDD X5, (DX)(X3*4), X6
	VMOVDQU    X6, (DI)

wldone:
	VZEROUPPER
	RET

wl2:
	MOVL         $0xff, AX
	VMOVD        AX, X7
	VPBROADCASTD X7, Y7
	TESTQ        R8, R8
	JEQ          wl2odd

wl2loop:
	MOVLQSX      (BX), R9
	MOVLQSX      4(BX), R10
	VPMOVZXWD    (SI)(R9*1), X3
	VPMOVZXWD    (SI)(R10*1), X4
	VINSERTI128  $1, X4, Y3, Y3
	VPAND        Y7, Y3, Y3
	VPCMPEQD     Y5, Y5, Y5
	VPGATHERDD   Y5, (DX)(Y3*4), Y6
	VMOVDQU      Y6, (DI)
	ADDQ         $8, BX
	ADDQ         $32, DI
	DECQ         R8
	JNE          wl2loop

wl2odd:
	TESTQ      $1, CX
	JEQ        wldone
	MOVLQSX    (BX), R9
	VPMOVZXWD  (SI)(R9*1), X3
	VPAND      X7, X3, X3
	VPCMPEQD   X5, X5, X5
	VPGATHERDD X5, (DX)(X3*4), X6
	VMOVDQU    X6, (DI)
	JMP        wldone
