#include "go_asm.h"
#include "textflag.h"

// AVX2 bodies of the output stages; see quant_amd64.go for the contracts
// and Strip and StepTable.Quantize for the scalar steps each lane runs.

// PACK8_STORE stores the eight int32 lanes of Y, each in [0, 255], as
// eight bytes at DI.
#define PACK8_STORE(Y, X) \
	VPACKUSDW Y, Y, Y; \
	VPERMQ    $0x08, Y, Y; \
	VPACKUSWB X, X, X; \
	VMOVQ     X, (DI)

// func stripAVX2(dst []uint8, acc []int32, c *stripConsts)
TEXT ·stripAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ acc_base+24(FP), SI
	MOVQ acc_len+32(FP), CX
	MOVQ c+48(FP), AX
	SHRQ $3, CX
	JEQ  sdone
	VPBROADCASTD stripConsts_bias(AX), Y15
	VPBROADCASTD stripConsts_m0(AX), Y14
	VPBROADCASTD stripConsts_mask(AX), Y13
	VPBROADCASTD stripConsts_threshold(AX), Y12
	VPBROADCASTD stripConsts_zero(AX), Y11
	VPBROADCASTD stripConsts_lo(AX), Y10
	VPBROADCASTD stripConsts_hi(AX), Y9
	VMOVD        stripConsts_right(AX), X8
	MOVQ         $0x40000000, DX
	VMOVQ        DX, X7
	VPBROADCASTQ X7, Y7                    // 2³⁰ in each 64-bit lane

sloop:
	// x = acc + bias, wrapping. VPMULDQ multiplies the even int32 lanes
	// into int64 products; the odd lanes are shifted down to meet m0.
	VMOVDQU (SI), Y0
	VPADDD  Y15, Y0, Y0
	VPMULDQ Y14, Y0, Y1
	VPSRLQ  $32, Y0, Y2
	VPMULDQ Y14, Y2, Y2

	// SRDHM: (ab + nudge) / 2³¹ with Go's truncating division is
	// ⌊(ab + 2³⁰) / 2³¹⌋ for either sign of ab, and |ab| < 2⁶² keeps the
	// quotient in int32, so bits 31–62 of ab + 2³⁰ are h. Even lanes
	// shift them down into the low half of their quadword, odd lanes up
	// into the high half, and one blend interleaves the two.
	VPADDQ   Y7, Y1, Y1
	VPADDQ   Y7, Y2, Y2
	VPSRLQ   $31, Y1, Y1
	VPSLLQ   $1, Y2, Y2
	VPBLENDD $0xaa, Y2, Y1, Y1

	// RoundingDivideByPOT: h>>right plus 1 when threshold + sign(h) −
	// (h & mask) is negative.
	VPSRAD X8, Y1, Y3
	VPAND  Y13, Y1, Y4
	VPSRLD $31, Y1, Y5
	VPADDD Y12, Y5, Y5
	VPSUBD Y4, Y5, Y5
	VPSRLD $31, Y5, Y5
	VPADDD Y5, Y3, Y3

	// + zero point (wrapping), clamp to [lo, hi].
	VPADDD  Y11, Y3, Y3
	VPMAXSD Y10, Y3, Y3
	VPMINSD Y9, Y3, Y3
	PACK8_STORE(Y3, X3)
	ADDQ    $32, SI
	ADDQ    $8, DI
	DECQ    CX
	JNE     sloop

sdone:
	VZEROUPPER
	RET

// func halfSumsAVX2(dst []uint8, acc []float32, b float32, t *StepTable) int
TEXT ·halfSumsAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ acc_base+24(FP), SI
	MOVQ acc_len+32(FP), CX
	MOVQ t+56(FP), AX
	XORQ DX, DX                            // elements written
	SHRQ $3, CX
	JEQ  hdone
	VBROADCASTSS b+48(FP), Y15
	VBROADCASTSS StepTable_inv(AX), Y14
	VBROADCASTSS StepTable_off(AX), Y13
	VPBROADCASTD StepTable_lo(AX), Y12     // lo and hi are in [0, 255]:
	VPBROADCASTD StepTable_hi(AX), Y11     // their low words are the values
	LEAQ         StepTable_steps(AX), BX
	MOVL         $0x387fffff, R8
	VMOVD        R8, X10
	VPBROADCASTD X10, Y10
	MOVL         $0x477ff000, R8
	VMOVD        R8, X9
	VPBROADCASTD X9, Y9
	MOVL         $0xfff, R8
	VMOVD        R8, X8
	VPBROADCASTD X8, Y8

hloop:
	// ok: |u| is 0 or in [0x38800000, 0x477ff000), f16.RoundNormal's
	// range. |u| ≤ 0x7fffffff, so signed compares order it.
	VMOVDQU  (SI), Y0
	VPSLLD   $1, Y0, Y1
	VPSRLD   $1, Y1, Y1
	VPCMPGTD Y10, Y1, Y2
	VPCMPGTD Y1, Y9, Y3
	VPAND    Y3, Y2, Y2
	VPXOR    Y3, Y3, Y3
	VPCMPEQD Y3, Y1, Y3
	VPOR     Y3, Y2, Y2

	// h: add 0xfff plus bit 13, clear the 13 dropped bits. x = h + b.
	VPSLLD $18, Y0, Y1
	VPSRLD $31, Y1, Y1
	VPADDD Y8, Y1, Y1
	VPADDD Y0, Y1, Y1
	VPSRLD $13, Y1, Y1
	VPSLLD $13, Y1, Y1
	VADDPS Y15, Y1, Y1

	// q = int32(x·inv + off) clamped to [lo, hi]: one multiply, one add
	// and a truncating conversion, as Quantize's estimate.
	VMULPS     Y14, Y1, Y3
	VADDPS     Y13, Y3, Y3
	VCVTTPS2DQ Y3, Y3
	VPMAXSD    Y12, Y3, Y3
	VPMINSD    Y11, Y3, Y3

	// A lane settles when neither of Quantize's walks would move:
	// !(x >= steps[q+1]) and !(x < steps[q]), ordered compares, so the
	// NaN above hi and the -Inf at lo end them as they do there.
	VPCMPEQD   Y4, Y4, Y4
	VPGATHERDD Y4, (BX)(Y3*4), Y5
	VPCMPEQD   Y4, Y4, Y4
	VPGATHERDD Y4, 4(BX)(Y3*4), Y6
	VCMPPS     $0x1d, Y6, Y1, Y6           // x >= steps[q+1] (GE_OQ)
	VCMPPS     $0x11, Y5, Y1, Y5           // x < steps[q] (LT_OQ)
	VPOR       Y5, Y6, Y6
	VPANDN     Y2, Y6, Y6                  // ok and settled
	VMOVMSKPS  Y6, R8
	CMPL       R8, $0xff
	JNE        hdone

	PACK8_STORE(Y3, X3)
	ADDQ $32, SI
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ CX
	JNE  hloop

hdone:
	MOVQ DX, ret+64(FP)
	VZEROUPPER
	RET
