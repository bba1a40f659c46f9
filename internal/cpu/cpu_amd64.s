#include "textflag.h"

// func hasAVX2() bool
//
// CPUID leaf 7 reports AVX2 (EBX bit 5), but the YMM registers are only
// usable when the OS saves their upper halves on a context switch: CPUID
// leaf 1 must report OSXSAVE (ECX bit 27) and AVX (bit 28), and XCR0,
// read by XGETBV (only legal under OSXSAVE), must have its SSE (bit 1)
// and AVX (bit 2) state bits set.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
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
