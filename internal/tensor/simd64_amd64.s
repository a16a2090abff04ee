//go:build amd64

#include "textflag.h"

// Float64 kernel primitives and the strided run copy, AVX2. Dispatched
// only after the init in simd_amd64.go has verified CPU and OS support
// (useASM). The arithmetic routines vectorise across output elements and
// never along a sum: one lane is one output, VMULPD rounds the product,
// VADDPD rounds the sum — the two roundings and the p order of the Go
// bodies in matmul.go, so every result is the same bits. No FMA here.
// Every routine that touches a YMM register executes VZEROUPPER before
// returning.

// func f64TransBTileAVX2(a, panel *float64, k int, out *float64)
//
// Four a-rows (stride k) against one packed panel of four b-rows: lane c
// of accumulator r is output (r, c), p ascending, product then sum. The
// first pass adds every term. An Inf or NaN in the panel would make every
// row's sum in its column non-finite, so when row 0's sums come out
// finite the panel holds none, the skip-zero rule changes nothing, and
// the first pass is the answer. Otherwise the second pass applies the
// rule: per p and row it compares the broadcast a[r][p] NEQ_UQ against
// zero (all-ones unless a is ±0; NaN compares true, as Go's `av == 0` is
// false for NaN) and ANDs the product with that mask, so a skipped term
// adds +0. DESIGN.md §10 proves both passes equal the Go body.
//
// The four a-rows are 8k contiguous bytes and the next call reads the 8k
// after them, so each step of the first pass also prefetches 32 bytes of
// the next tile's rows. A prefetch past the end of a is a hint that
// faults nothing.
TEXT ·f64TransBTileAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ panel+8(FP), DI
	MOVQ k+16(FP), CX
	MOVQ out+24(FP), DX
	LEAQ (SI)(CX*8), R8
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	LEAQ (R10)(CX*8), R11
	MOVQ DI, BX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX
tile64_loop:
	PREFETCHT0 (R11)
	ADDQ $32, R11
	VMOVUPD (DI), Y4
	VBROADCASTSD (SI)(AX*8), Y5
	VBROADCASTSD (R8)(AX*8), Y6
	VBROADCASTSD (R9)(AX*8), Y7
	VBROADCASTSD (R10)(AX*8), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $32, DI
	INCQ AX
	CMPQ AX, CX
	JLT  tile64_loop
	VSUBPD Y0, Y0, Y9
	VCMPPD $3, Y9, Y9, Y9
	VMOVMSKPD Y9, AX
	TESTL AX, AX
	JZ   tile64_store
	MOVQ BX, DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y15, Y15, Y15
	XORQ AX, AX
tile64_masked:
	VMOVUPD (DI), Y4
	VBROADCASTSD (SI)(AX*8), Y5
	VBROADCASTSD (R8)(AX*8), Y6
	VBROADCASTSD (R9)(AX*8), Y7
	VBROADCASTSD (R10)(AX*8), Y8
	VCMPPD $4, Y15, Y5, Y9
	VCMPPD $4, Y15, Y6, Y10
	VCMPPD $4, Y15, Y7, Y11
	VCMPPD $4, Y15, Y8, Y12
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VANDPD Y9, Y5, Y5
	VANDPD Y10, Y6, Y6
	VANDPD Y11, Y7, Y7
	VANDPD Y12, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $32, DI
	INCQ AX
	CMPQ AX, CX
	JLT  tile64_masked
tile64_store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func f64AxpyAVX2(dst, x *float64, alpha float64, n int)
//
// dst[i] += alpha*x[i], product then sum; 8 doubles per main-loop
// iteration, one 4-wide step, then a scalar tail with the same two
// roundings.
TEXT ·f64AxpyAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSD alpha+16(FP), Y0
	MOVQ n+24(FP), CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   axpy64_mid
axpy64_loop8:
	VMULPD (SI), Y0, Y1
	VMULPD 32(SI), Y0, Y2
	VADDPD (DI), Y1, Y1
	VADDPD 32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  axpy64_loop8
axpy64_mid:
	TESTQ $4, CX
	JZ   axpy64_tail_setup
	VMULPD (SI), Y0, Y1
	VADDPD (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
axpy64_tail_setup:
	ANDQ $3, CX
	JZ   axpy64_done
axpy64_tail:
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  axpy64_tail
axpy64_done:
	VZEROUPPER
	RET

// func copyRunsAVX2(dst, src unsafe.Pointer, runBytes, n, dstStride, srcStride int)
//
// n runs of runBytes each. The move width is picked once per call from
// runBytes: a run of w..2w bytes (w = 4, 8, 16, 32) is two unaligned
// w-byte loads — the first w bytes and the last w, overlapping in the
// middle — then two stores; a longer run is 32-byte chunks plus one
// overlapping 32-byte tail. Both loads precede both stores, and nothing
// outside [0, runBytes) of a run is read or written.
TEXT ·copyRunsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ runBytes+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ dstStride+32(FP), R8
	MOVQ srcStride+40(FP), R9
	CMPQ BX, $8
	JLE  runs4
	CMPQ BX, $16
	JLE  runs8
	CMPQ BX, $32
	JLE  runs16
	CMPQ BX, $64
	JLE  runs32
	SUBQ $32, BX
runs_long:
	XORQ AX, AX
runs_long_chunk:
	VMOVDQU (SI)(AX*1), Y0
	VMOVDQU Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, BX
	JLT  runs_long_chunk
	VMOVDQU (SI)(BX*1), Y0
	VMOVDQU Y0, (DI)(BX*1)
	ADDQ R9, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  runs_long
	VZEROUPPER
	RET
runs32:
	SUBQ $32, BX
runs32_loop:
	VMOVDQU (SI), Y0
	VMOVDQU (SI)(BX*1), Y1
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, (DI)(BX*1)
	ADDQ R9, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  runs32_loop
	VZEROUPPER
	RET
runs16:
	SUBQ $16, BX
runs16_loop:
	VMOVDQU (SI), X0
	VMOVDQU (SI)(BX*1), X1
	VMOVDQU X0, (DI)
	VMOVDQU X1, (DI)(BX*1)
	ADDQ R9, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  runs16_loop
	RET
runs8:
	SUBQ $8, BX
runs8_loop:
	MOVQ (SI), AX
	MOVQ (SI)(BX*1), DX
	MOVQ AX, (DI)
	MOVQ DX, (DI)(BX*1)
	ADDQ R9, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  runs8_loop
	RET
runs4:
	SUBQ $4, BX
runs4_loop:
	MOVL (SI), AX
	MOVL (SI)(BX*1), DX
	MOVL AX, (DI)
	MOVL DX, (DI)(BX*1)
	ADDQ R9, SI
	ADDQ R8, DI
	DECQ CX
	JNZ  runs4_loop
	RET
