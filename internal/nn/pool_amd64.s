#include "textflag.h"

// func maxRunAVX2(dst, src []uint8, off []int, mask []uint8, period, phase int)
//
// maxRunGo over 32 lanes: each 32-byte block of dst is the VPMAXUB of
// its taps' 32-byte reads of src, each VPANDed with that tap's mask row
// at the block's phase p, which steps by 32 and wraps at period (≥ 32,
// so one subtraction wraps it). A length that is not a multiple of 32
// ends with one more block that overlaps the last whole one: it
// recomputes the overlapped bytes to the same values.
TEXT ·maxRunAVX2(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ off_base+48(FP), BX
	MOVQ off_len+56(FP), R8
	LEAQ (BX)(R8*8), R8       // the end of the tap offsets
	MOVQ mask_base+72(FP), DX
	MOVQ period+96(FP), R9
	MOVQ phase+104(FP), R10   // p
	LEAQ 32(R9), R11          // one mask row: period+32 bytes
	MOVQ CX, R14
	ANDQ $31, R14             // the overlapping block still to run, if any
	SHRQ $5, CX               // whole blocks (at least one)

block:
	VPXOR   Y0, Y0, Y0
	MOVQ    BX, R13
	LEAQ    (DX)(R10*1), AX   // tap 0's mask at phase p

tap:
	MOVQ    (R13), R12
	VMOVDQU (SI)(R12*1), Y1
	VPAND   (AX), Y1, Y1
	VPMAXUB Y1, Y0, Y0
	ADDQ    R11, AX
	ADDQ    $8, R13
	CMPQ    R13, R8
	JNE     tap
	VMOVDQU Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R10
	CMPQ    R10, R9
	JLT     nowrap
	SUBQ    R9, R10

nowrap:
	DECQ CX
	JNE  block
	TESTQ R14, R14
	JEQ   done

	// Back up 32 − len%32 bytes for the overlapping last block.
	MOVQ $32, R13
	SUBQ R14, R13
	SUBQ R13, DI
	SUBQ R13, SI
	SUBQ R13, R10
	JGE  last
	ADDQ R9, R10

last:
	XORQ R14, R14
	MOVQ $1, CX
	JMP  block

done:
	VZEROUPPER
	RET
