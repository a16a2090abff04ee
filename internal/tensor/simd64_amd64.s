//go:build amd64

#include "textflag.h"

// Float64 kernel primitives, the Euclidean distance tile and the strided
// run copy, AVX2. Dispatched
// only after the init in simd_amd64.go has verified CPU and OS support
// (useASM). The arithmetic routines vectorise across output elements and
// never along a sum: one lane is one output, VMULPD rounds the product,
// VADDPD rounds the sum — the two roundings and the p order of the Go
// bodies in matmul.go, so every result is the same bits. No FMA here.
// Every routine that touches a YMM register executes VZEROUPPER before
// returning.

// func f64TransBTileAVX2(rows *[4]*float64, off *int32, panel *float64, k int, out *float64, maskPanel bool)
//
// Four broadcast rows against one packed panel of four rows: lane c of
// accumulator r is output (r, c), p ascending, product then sum. Row r's
// value at p is rows[r][off[p]]: a row base plus one offset table shared
// by the four rows. With off[p] = p and bases r·k the rows are four
// consecutive rows of a row-major operand; with a convolution's tap
// offsets and four output pixels' top-left taps they are four rows of
// the unroll, read in place in the padded batch. One of the two operands
// carries the skip-zero rule: the broadcast values (maskPanel false: the
// panel is bᵀ) or the panel's (maskPanel true: the panel is four rows of
// the product's a, the broadcast rows its b, and the caller stores the
// tile transposed). The first pass adds every term. An Inf or NaN in the
// other operand makes every sum it enters non-finite — a panel column's
// in all four rows, a broadcast row's in all lanes — so when all sixteen
// sums come out finite that operand holds none, the skip-zero rule
// changes nothing, and the first pass is the answer. Otherwise the second
// pass applies the rule: per p it compares the skip operand NEQ_UQ
// against zero (all-ones unless it is ±0; NaN compares true, as Go's
// `av == 0` is false for NaN) and ANDs each product with that mask, so a
// skipped term adds +0. DESIGN.md §10 proves both passes equal the Go
// body.
//
// Consecutive rows of a row-major operand are followed by the next
// tile's, so each step of the first pass also prefetches 32 bytes of the
// 8k after the fourth row's base. A prefetch past the end of an operand
// is a hint that faults nothing.
TEXT ·f64TransBTileAVX2(SB), NOSPLIT, $0-41
	MOVQ rows+0(FP), AX
	MOVQ 0(AX), SI
	MOVQ 8(AX), R8
	MOVQ 16(AX), R9
	MOVQ 24(AX), R10
	MOVQ off+8(FP), R12
	MOVQ panel+16(FP), DI
	MOVQ k+24(FP), CX
	MOVQ out+32(FP), DX
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
	MOVL (R12)(AX*4), R13
	VMOVUPD (DI), Y4
	VBROADCASTSD (SI)(R13*8), Y5
	VBROADCASTSD (R8)(R13*8), Y6
	VBROADCASTSD (R9)(R13*8), Y7
	VBROADCASTSD (R10)(R13*8), Y8
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
	VSUBPD Y1, Y1, Y10
	VSUBPD Y2, Y2, Y11
	VSUBPD Y3, Y3, Y12
	VADDPD Y10, Y9, Y9
	VADDPD Y12, Y11, Y11
	VADDPD Y11, Y9, Y9
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
	VCMPPD $0, Y15, Y15, Y14
	VXORPD Y13, Y13, Y13
	MOVBLZX maskPanel+40(FP), AX
	TESTL AX, AX
	JNZ  tile64_masked_start
	VMOVUPD Y14, Y13
	VXORPD Y14, Y14, Y14
tile64_masked_start:
	// Y13 is all-ones when the panel carries no mask, Y14 when the
	// broadcast rows carry none; Y9 is the panel's mask for this p, Y10
	// the mask of the row being added.
	XORQ AX, AX
tile64_masked:
	MOVL (R12)(AX*4), R13
	VMOVUPD (DI), Y4
	VCMPPD $4, Y15, Y4, Y9
	VORPD Y13, Y9, Y9
	VBROADCASTSD (SI)(R13*8), Y5
	VBROADCASTSD (R8)(R13*8), Y6
	VBROADCASTSD (R9)(R13*8), Y7
	VBROADCASTSD (R10)(R13*8), Y8
	VCMPPD $4, Y15, Y5, Y10
	VORPD Y14, Y10, Y10
	VANDPD Y9, Y10, Y10
	VMULPD Y4, Y5, Y5
	VANDPD Y10, Y5, Y5
	VADDPD Y5, Y0, Y0
	VCMPPD $4, Y15, Y6, Y10
	VORPD Y14, Y10, Y10
	VANDPD Y9, Y10, Y10
	VMULPD Y4, Y6, Y6
	VANDPD Y10, Y6, Y6
	VADDPD Y6, Y1, Y1
	VCMPPD $4, Y15, Y7, Y10
	VORPD Y14, Y10, Y10
	VANDPD Y9, Y10, Y10
	VMULPD Y4, Y7, Y7
	VANDPD Y10, Y7, Y7
	VADDPD Y7, Y2, Y2
	VCMPPD $4, Y15, Y8, Y10
	VORPD Y14, Y10, Y10
	VANDPD Y9, Y10, Y10
	VMULPD Y4, Y8, Y8
	VANDPD Y10, Y8, Y8
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

// func f64EuclideanTileAVX2(a *[4]*float64, panel *float64, k int, out *[16]float64)
//
// Four rows, each broadcast from its own pointer, against one packed
// panel of four rows: lane c of accumulator r is pair (r, c), summing
// (a[r][p] − panel[4p+c])² from +0 over p ascending. VSUBPD rounds the
// difference, VMULPD the square and VADDPD the sum — the three roundings
// of linalg.VecDistance's Euclidean loop, in its order — so every lane
// is that pair's sum of squares to the bit; the caller takes the square
// root. No operand is skipped and nothing is masked: the loop has no
// zero rule to keep.
TEXT ·f64EuclideanTileAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), AX
	MOVQ 0(AX), SI
	MOVQ 8(AX), R8
	MOVQ 16(AX), R9
	MOVQ 24(AX), R10
	MOVQ panel+8(FP), DI
	MOVQ k+16(FP), CX
	MOVQ out+24(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX
dist64_loop:
	VMOVUPD (DI), Y4
	VBROADCASTSD (SI)(AX*8), Y5
	VBROADCASTSD (R8)(AX*8), Y6
	VBROADCASTSD (R9)(AX*8), Y7
	VBROADCASTSD (R10)(AX*8), Y8
	VSUBPD Y4, Y5, Y5
	VSUBPD Y4, Y6, Y6
	VSUBPD Y4, Y7, Y7
	VSUBPD Y4, Y8, Y8
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	VMULPD Y8, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $32, DI
	INCQ AX
	CMPQ AX, CX
	JLT  dist64_loop
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func f64AxpyAVX2(dst *float64, x *[4]*float64, alpha *[4]float64, terms, n int)
//
// dst[i] = (((dst[i] + alpha[0]*x[0][i]) + alpha[1]*x[1][i]) + …) over
// the first terms (1–4) of x and alpha, each product rounded before its
// sum: one load and one store of dst per element for up to four
// sequential axpys. 8 doubles per main-loop iteration, one 4-wide step,
// then a scalar tail with the same roundings. A term past terms is
// neither read nor added; the branches that skip them go the same way on
// every iteration of a call.
TEXT ·f64AxpyAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), AX
	MOVQ alpha+16(FP), BX
	MOVQ terms+24(FP), R12
	MOVQ n+32(FP), CX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	VBROADCASTSD 0(BX), Y12
	VBROADCASTSD 8(BX), Y13
	VBROADCASTSD 16(BX), Y14
	VBROADCASTSD 24(BX), Y15
	XORQ SI, SI
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   axpy64_mid
axpy64_loop8:
	VMOVUPD (DI)(SI*1), Y0
	VMOVUPD 32(DI)(SI*1), Y1
	VMULPD (R8)(SI*1), Y12, Y2
	VMULPD 32(R8)(SI*1), Y12, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	CMPQ R12, $2
	JLT  axpy64_store8
	VMULPD (R9)(SI*1), Y13, Y2
	VMULPD 32(R9)(SI*1), Y13, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	CMPQ R12, $3
	JLT  axpy64_store8
	VMULPD (R10)(SI*1), Y14, Y2
	VMULPD 32(R10)(SI*1), Y14, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	CMPQ R12, $4
	JLT  axpy64_store8
	VMULPD (R11)(SI*1), Y15, Y2
	VMULPD 32(R11)(SI*1), Y15, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
axpy64_store8:
	VMOVUPD Y0, (DI)(SI*1)
	VMOVUPD Y1, 32(DI)(SI*1)
	ADDQ $64, SI
	DECQ DX
	JNZ  axpy64_loop8
axpy64_mid:
	TESTQ $4, CX
	JZ   axpy64_tail_setup
	VMOVUPD (DI)(SI*1), Y0
	VMULPD (R8)(SI*1), Y12, Y2
	VADDPD Y2, Y0, Y0
	CMPQ R12, $2
	JLT  axpy64_store4
	VMULPD (R9)(SI*1), Y13, Y2
	VADDPD Y2, Y0, Y0
	CMPQ R12, $3
	JLT  axpy64_store4
	VMULPD (R10)(SI*1), Y14, Y2
	VADDPD Y2, Y0, Y0
	CMPQ R12, $4
	JLT  axpy64_store4
	VMULPD (R11)(SI*1), Y15, Y2
	VADDPD Y2, Y0, Y0
axpy64_store4:
	VMOVUPD Y0, (DI)(SI*1)
	ADDQ $32, SI
axpy64_tail_setup:
	ANDQ $3, CX
	JZ   axpy64_done
axpy64_tail:
	VMOVSD (DI)(SI*1), X0
	VMULSD (R8)(SI*1), X12, X2
	VADDSD X2, X0, X0
	CMPQ R12, $2
	JLT  axpy64_store1
	VMULSD (R9)(SI*1), X13, X2
	VADDSD X2, X0, X0
	CMPQ R12, $3
	JLT  axpy64_store1
	VMULSD (R10)(SI*1), X14, X2
	VADDSD X2, X0, X0
	CMPQ R12, $4
	JLT  axpy64_store1
	VMULSD (R11)(SI*1), X15, X2
	VADDSD X2, X0, X0
axpy64_store1:
	VMOVSD X0, (DI)(SI*1)
	ADDQ $8, SI
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

// func f64MomentumSGDAVX2(w, grad, v *float64, n int, lr, mom, wd float64)
//
// One momentum SGD step over n > 0 elements, n a multiple of 4, of the
// non-overlapping w, grad and v: per lane
//
//	eff = r(w·wd) + grad;  v = eff + r(v·mom);  w = w − r(v·lr)
//
// VMULPD rounds each product before the VADDPD/VSUBPD that takes it, as
// the Go body momentumGo does. A product's or a sum's value does not
// depend on its operands' order; when both operands are NaN the first
// source's payload wins, and every instruction here takes its operands
// in the order go1.24 compiles the Go body's scalar loop, so the
// payloads agree with it too. 8 doubles per loop iteration, then one
// 4-wide step.
TEXT ·f64MomentumSGDAVX2(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD lr+32(FP), Y13
	VBROADCASTSD mom+40(FP), Y14
	VBROADCASTSD wd+48(FP), Y15
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   sgd64_four
sgd64_loop8:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMULPD Y15, Y0, Y2
	VMULPD Y15, Y1, Y3
	VADDPD (SI)(AX*1), Y2, Y2
	VADDPD 32(SI)(AX*1), Y3, Y3
	VMOVUPD (DX)(AX*1), Y4
	VMOVUPD 32(DX)(AX*1), Y5
	VMULPD Y14, Y4, Y4
	VMULPD Y14, Y5, Y5
	VADDPD Y4, Y2, Y2
	VADDPD Y5, Y3, Y3
	VMOVUPD Y2, (DX)(AX*1)
	VMOVUPD Y3, 32(DX)(AX*1)
	VMULPD Y13, Y2, Y2
	VMULPD Y13, Y3, Y3
	VSUBPD Y2, Y0, Y0
	VSUBPD Y3, Y1, Y1
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	ADDQ $64, AX
	DECQ BX
	JNZ  sgd64_loop8
sgd64_four:
	TESTQ $4, CX
	JZ   sgd64_done
	VMOVUPD (DI)(AX*1), Y0
	VMULPD Y15, Y0, Y2
	VADDPD (SI)(AX*1), Y2, Y2
	VMOVUPD (DX)(AX*1), Y4
	VMULPD Y14, Y4, Y4
	VADDPD Y4, Y2, Y2
	VMOVUPD Y2, (DX)(AX*1)
	VMULPD Y13, Y2, Y2
	VSUBPD Y2, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
sgd64_done:
	VZEROUPPER
	RET

// func f64ToF32AVX2(dst *float32, src *float64, n int)
//
// dst[i] = float32(src[i]) over n > 0 elements, n a multiple of 4:
// VCVTPD2PS rounds four doubles at a time under MXCSR, which the Go
// runtime leaves at round to nearest even with no flush to zero — the
// rounding of the CVTSD2SS the Go body compiles to, NaN payloads
// included (the top 23 fraction bits, quieted). 16 per loop iteration,
// then 4 at a time.
TEXT ·f64ToF32AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	CMPQ CX, $4
	JLT  cvt32_four
cvt32_loop16:
	VCVTPD2PSY (SI), X0
	VCVTPD2PSY 32(SI), X1
	VCVTPD2PSY 64(SI), X2
	VCVTPD2PSY 96(SI), X3
	VMOVUPS X0, (DI)
	VMOVUPS X1, 16(DI)
	VMOVUPS X2, 32(DI)
	VMOVUPS X3, 48(DI)
	ADDQ $128, SI
	ADDQ $64, DI
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  cvt32_loop16
cvt32_four:
	TESTQ CX, CX
	JZ   cvt32_done
cvt32_loop4:
	VCVTPD2PSY (SI), X0
	VMOVUPS X0, (DI)
	ADDQ $32, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  cvt32_loop4
cvt32_done:
	VZEROUPPER
	RET

// func f32ToF64AVX2(dst *float64, src *float32, n int)
//
// dst[i] = float64(src[i]) over n > 0 elements, n a multiple of 4:
// VCVTPS2PD widens four floats at a time, exactly, as the CVTSS2SD the
// Go body compiles to (a signalling NaN is quieted by both). 16 per loop
// iteration, then 4 at a time.
TEXT ·f32ToF64AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	CMPQ CX, $4
	JLT  cvt64_four
cvt64_loop16:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y1
	VCVTPS2PD 32(SI), Y2
	VCVTPS2PD 48(SI), Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $64, SI
	ADDQ $128, DI
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  cvt64_loop16
cvt64_four:
	TESTQ CX, CX
	JZ   cvt64_done
cvt64_loop4:
	VCVTPS2PD (SI), Y0
	VMOVUPD Y0, (DI)
	ADDQ $16, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  cvt64_loop4
cvt64_done:
	VZEROUPPER
	RET
