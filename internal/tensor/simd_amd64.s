//go:build amd64

#include "textflag.h"

// Float32 kernel primitives, AVX2, and the feature probes of the gate.
// Dispatched only after the init in simd_amd64.go has verified CPU and OS
// support (useASM). The float32 pair is simd64_amd64.s's float64 pair at
// twice the lanes: it vectorises across output elements and never along
// a sum — one lane is one output, VMULPS rounds the product, VADDPS
// rounds the sum, the two roundings and the p order of the Go bodies in
// matmul.go, so every result is the same bits. No FMA here. Every
// routine that touches a YMM register executes VZEROUPPER before
// returning.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func f32TransBTileAVX2(rows *[4]*float32, off *int32, panel *float32, k int, out *float32, maskPanel bool)
//
// f64TransBTileAVX2 at eight lanes: four broadcast rows, row r's value at
// p being rows[r][off[p]], against one packed panel of eight rows, lane c
// of accumulator r is output (r, c); a first pass over every term, kept
// when all four rows' sums are finite, and the masked skip-zero pass
// otherwise, masking by the panel value when maskPanel is set and by the
// broadcast value when it is not. Each step of the first pass prefetches
// 16 bytes of the 4k after the fourth row's base.
TEXT ·f32TransBTileAVX2(SB), NOSPLIT, $0-41
	MOVQ rows+0(FP), AX
	MOVQ 0(AX), SI
	MOVQ 8(AX), R8
	MOVQ 16(AX), R9
	MOVQ 24(AX), R10
	MOVQ off+8(FP), R12
	MOVQ panel+16(FP), DI
	MOVQ k+24(FP), CX
	MOVQ out+32(FP), DX
	LEAQ (R10)(CX*4), R11
	MOVQ DI, BX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX
tile32_loop:
	PREFETCHT0 (R11)
	ADDQ $16, R11
	MOVL (R12)(AX*4), R13
	VMOVUPS (DI), Y4
	VBROADCASTSS (SI)(R13*4), Y5
	VBROADCASTSS (R8)(R13*4), Y6
	VBROADCASTSS (R9)(R13*4), Y7
	VBROADCASTSS (R10)(R13*4), Y8
	VMULPS Y4, Y5, Y5
	VMULPS Y4, Y6, Y6
	VMULPS Y4, Y7, Y7
	VMULPS Y4, Y8, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3
	ADDQ $32, DI
	INCQ AX
	CMPQ AX, CX
	JLT  tile32_loop
	VSUBPS Y0, Y0, Y9
	VSUBPS Y1, Y1, Y10
	VSUBPS Y2, Y2, Y11
	VSUBPS Y3, Y3, Y12
	VADDPS Y10, Y9, Y9
	VADDPS Y12, Y11, Y11
	VADDPS Y11, Y9, Y9
	VCMPPS $3, Y9, Y9, Y9
	VMOVMSKPS Y9, AX
	TESTL AX, AX
	JZ   tile32_store
	MOVQ BX, DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y15, Y15, Y15
	VCMPPS $0, Y15, Y15, Y14
	VXORPS Y13, Y13, Y13
	MOVBLZX maskPanel+40(FP), AX
	TESTL AX, AX
	JNZ  tile32_masked_start
	VMOVUPS Y14, Y13
	VXORPS Y14, Y14, Y14
tile32_masked_start:
	XORQ AX, AX
tile32_masked:
	MOVL (R12)(AX*4), R13
	VMOVUPS (DI), Y4
	VCMPPS $4, Y15, Y4, Y9
	VORPS Y13, Y9, Y9
	VBROADCASTSS (SI)(R13*4), Y5
	VBROADCASTSS (R8)(R13*4), Y6
	VBROADCASTSS (R9)(R13*4), Y7
	VBROADCASTSS (R10)(R13*4), Y8
	VCMPPS $4, Y15, Y5, Y10
	VORPS Y14, Y10, Y10
	VANDPS Y9, Y10, Y10
	VMULPS Y4, Y5, Y5
	VANDPS Y10, Y5, Y5
	VADDPS Y5, Y0, Y0
	VCMPPS $4, Y15, Y6, Y10
	VORPS Y14, Y10, Y10
	VANDPS Y9, Y10, Y10
	VMULPS Y4, Y6, Y6
	VANDPS Y10, Y6, Y6
	VADDPS Y6, Y1, Y1
	VCMPPS $4, Y15, Y7, Y10
	VORPS Y14, Y10, Y10
	VANDPS Y9, Y10, Y10
	VMULPS Y4, Y7, Y7
	VANDPS Y10, Y7, Y7
	VADDPS Y7, Y2, Y2
	VCMPPS $4, Y15, Y8, Y10
	VORPS Y14, Y10, Y10
	VANDPS Y9, Y10, Y10
	VMULPS Y4, Y8, Y8
	VANDPS Y10, Y8, Y8
	VADDPS Y8, Y3, Y3
	ADDQ $32, DI
	INCQ AX
	CMPQ AX, CX
	JLT  tile32_masked
tile32_store:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VZEROUPPER
	RET

// func f32AxpyAVX2(dst *float32, x *[4]*float32, alpha *[4]float32, terms, n int)
//
// dst[i] = (((dst[i] + alpha[0]*x[0][i]) + alpha[1]*x[1][i]) + …) over
// the first terms (1–4) of x and alpha, each product rounded before its
// sum: one load and one store of dst per element for up to four
// sequential axpys. 16 floats per main-loop iteration, one 8-wide step,
// then a scalar tail with the same roundings. A term past terms is
// neither read nor added; the branches that skip them go the same way on
// every iteration of a call.
TEXT ·f32AxpyAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), AX
	MOVQ alpha+16(FP), BX
	MOVQ terms+24(FP), R12
	MOVQ n+32(FP), CX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	VBROADCASTSS 0(BX), Y12
	VBROADCASTSS 4(BX), Y13
	VBROADCASTSS 8(BX), Y14
	VBROADCASTSS 12(BX), Y15
	XORQ SI, SI
	MOVQ CX, DX
	SHRQ $4, DX
	JZ   axpy32_mid
axpy32_loop16:
	VMOVUPS (DI)(SI*1), Y0
	VMOVUPS 32(DI)(SI*1), Y1
	VMULPS (R8)(SI*1), Y12, Y2
	VMULPS 32(R8)(SI*1), Y12, Y3
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y1, Y1
	CMPQ R12, $2
	JLT  axpy32_store16
	VMULPS (R9)(SI*1), Y13, Y2
	VMULPS 32(R9)(SI*1), Y13, Y3
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y1, Y1
	CMPQ R12, $3
	JLT  axpy32_store16
	VMULPS (R10)(SI*1), Y14, Y2
	VMULPS 32(R10)(SI*1), Y14, Y3
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y1, Y1
	CMPQ R12, $4
	JLT  axpy32_store16
	VMULPS (R11)(SI*1), Y15, Y2
	VMULPS 32(R11)(SI*1), Y15, Y3
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y1, Y1
axpy32_store16:
	VMOVUPS Y0, (DI)(SI*1)
	VMOVUPS Y1, 32(DI)(SI*1)
	ADDQ $64, SI
	DECQ DX
	JNZ  axpy32_loop16
axpy32_mid:
	TESTQ $8, CX
	JZ   axpy32_tail_setup
	VMOVUPS (DI)(SI*1), Y0
	VMULPS (R8)(SI*1), Y12, Y2
	VADDPS Y2, Y0, Y0
	CMPQ R12, $2
	JLT  axpy32_store8
	VMULPS (R9)(SI*1), Y13, Y2
	VADDPS Y2, Y0, Y0
	CMPQ R12, $3
	JLT  axpy32_store8
	VMULPS (R10)(SI*1), Y14, Y2
	VADDPS Y2, Y0, Y0
	CMPQ R12, $4
	JLT  axpy32_store8
	VMULPS (R11)(SI*1), Y15, Y2
	VADDPS Y2, Y0, Y0
axpy32_store8:
	VMOVUPS Y0, (DI)(SI*1)
	ADDQ $32, SI
axpy32_tail_setup:
	ANDQ $7, CX
	JZ   axpy32_done
axpy32_tail:
	VMOVSS (DI)(SI*1), X0
	VMULSS (R8)(SI*1), X12, X2
	VADDSS X2, X0, X0
	CMPQ R12, $2
	JLT  axpy32_store1
	VMULSS (R9)(SI*1), X13, X2
	VADDSS X2, X0, X0
	CMPQ R12, $3
	JLT  axpy32_store1
	VMULSS (R10)(SI*1), X14, X2
	VADDSS X2, X0, X0
	CMPQ R12, $4
	JLT  axpy32_store1
	VMULSS (R11)(SI*1), X15, X2
	VADDSS X2, X0, X0
axpy32_store1:
	VMOVSS X0, (DI)(SI*1)
	ADDQ $4, SI
	DECQ CX
	JNZ  axpy32_tail
axpy32_done:
	VZEROUPPER
	RET

// func f32ConvAxpyAVX2(dst *float32, x *[4]*float32, alpha *[4]float32, terms int, runs *int32, n, kw int)
//
// The weight gradient's axpy, read in place: for each of the n runs, in
// order, dst[i] = (((dst[i] + alpha[0]*x[0][runs[r]+i]) + alpha[1]*
// x[1][runs[r]+i]) + …) over the run's kw elements of dst (run r's are
// r·kw…r·kw+kw−1) and the first terms (1–4) of x and alpha, each product
// rounded before its sum — f32AxpyAVX2's chain, per run. A run is kw/8
// 8-wide steps, one 4-wide step when kw&4 is set, then kw&3 scalar
// steps with the same roundings, so nothing outside a run is read or
// written. A term past terms is neither read nor added; the branches that
// skip them go the same way on every step of a call.
TEXT ·f32ConvAxpyAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), AX
	MOVQ alpha+16(FP), BX
	MOVQ terms+24(FP), R12
	MOVQ runs+32(FP), R13
	MOVQ n+40(FP), R14
	MOVQ kw+48(FP), CX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	VBROADCASTSS 0(BX), Y12
	VBROADCASTSS 4(BX), Y13
	VBROADCASTSS 8(BX), Y14
	VBROADCASTSS 12(BX), Y15
	MOVQ CX, BX
	SHRQ $3, CX
	ANDQ $7, BX
conv32_run:
	MOVLQSX (R13), SI
	SHLQ $2, SI
	MOVQ CX, DX
	TESTQ DX, DX
	JZ   conv32_half
conv32_full:
	VMOVUPS (DI), Y0
	VMULPS (R8)(SI*1), Y12, Y2
	VADDPS Y2, Y0, Y0
	CMPQ R12, $2
	JLT  conv32_store_full
	VMULPS (R9)(SI*1), Y13, Y2
	VADDPS Y2, Y0, Y0
	CMPQ R12, $3
	JLT  conv32_store_full
	VMULPS (R10)(SI*1), Y14, Y2
	VADDPS Y2, Y0, Y0
	CMPQ R12, $4
	JLT  conv32_store_full
	VMULPS (R11)(SI*1), Y15, Y2
	VADDPS Y2, Y0, Y0
conv32_store_full:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ DX
	JNZ  conv32_full
conv32_half:
	TESTQ $4, BX
	JZ   conv32_tail_setup
	VMOVUPS (DI), X0
	VMULPS (R8)(SI*1), X12, X2
	VADDPS X2, X0, X0
	CMPQ R12, $2
	JLT  conv32_store_half
	VMULPS (R9)(SI*1), X13, X2
	VADDPS X2, X0, X0
	CMPQ R12, $3
	JLT  conv32_store_half
	VMULPS (R10)(SI*1), X14, X2
	VADDPS X2, X0, X0
	CMPQ R12, $4
	JLT  conv32_store_half
	VMULPS (R11)(SI*1), X15, X2
	VADDPS X2, X0, X0
conv32_store_half:
	VMOVUPS X0, (DI)
	ADDQ $16, DI
	ADDQ $16, SI
conv32_tail_setup:
	MOVQ BX, DX
	ANDQ $3, DX
	JZ   conv32_next
conv32_tail:
	VMOVSS (DI), X0
	VMULSS (R8)(SI*1), X12, X2
	VADDSS X2, X0, X0
	CMPQ R12, $2
	JLT  conv32_store1
	VMULSS (R9)(SI*1), X13, X2
	VADDSS X2, X0, X0
	CMPQ R12, $3
	JLT  conv32_store1
	VMULSS (R10)(SI*1), X14, X2
	VADDSS X2, X0, X0
	CMPQ R12, $4
	JLT  conv32_store1
	VMULSS (R11)(SI*1), X15, X2
	VADDSS X2, X0, X0
conv32_store1:
	VMOVSS X0, (DI)
	ADDQ $4, DI
	ADDQ $4, SI
	DECQ DX
	JNZ  conv32_tail
conv32_next:
	ADDQ $4, R13
	DECQ R14
	JNZ  conv32_run
	VZEROUPPER
	RET

// func f32MomentumSGDAVX2(w, grad, v *float32, n int, lr, mom, wd float32)
//
// f64MomentumSGDAVX2 at eight lanes: one momentum SGD step over n > 0
// elements, n a multiple of 8, of the non-overlapping w, grad and v, per
// lane eff = r(w·wd) + grad; v = eff + r(v·mom); w = w − r(v·lr), each
// product rounded by VMULPS before its VADDPS/VSUBPS, every operand in
// the Go body's compiled order. 16 floats per loop iteration, then one
// 8-wide step.
TEXT ·f32MomentumSGDAVX2(SB), NOSPLIT, $0-44
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSS lr+32(FP), Y13
	VBROADCASTSS mom+36(FP), Y14
	VBROADCASTSS wd+40(FP), Y15
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   sgd32_eight
sgd32_loop16:
	VMOVUPS (DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMULPS Y15, Y0, Y2
	VMULPS Y15, Y1, Y3
	VADDPS (SI)(AX*1), Y2, Y2
	VADDPS 32(SI)(AX*1), Y3, Y3
	VMOVUPS (DX)(AX*1), Y4
	VMOVUPS 32(DX)(AX*1), Y5
	VMULPS Y14, Y4, Y4
	VMULPS Y14, Y5, Y5
	VADDPS Y4, Y2, Y2
	VADDPS Y5, Y3, Y3
	VMOVUPS Y2, (DX)(AX*1)
	VMOVUPS Y3, 32(DX)(AX*1)
	VMULPS Y13, Y2, Y2
	VMULPS Y13, Y3, Y3
	VSUBPS Y2, Y0, Y0
	VSUBPS Y3, Y1, Y1
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	ADDQ $64, AX
	DECQ BX
	JNZ  sgd32_loop16
sgd32_eight:
	TESTQ $8, CX
	JZ   sgd32_done
	VMOVUPS (DI)(AX*1), Y0
	VMULPS Y15, Y0, Y2
	VADDPS (SI)(AX*1), Y2, Y2
	VMOVUPS (DX)(AX*1), Y4
	VMULPS Y14, Y4, Y4
	VADDPS Y4, Y2, Y2
	VMOVUPS Y2, (DX)(AX*1)
	VMULPS Y13, Y2, Y2
	VSUBPS Y2, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
sgd32_done:
	VZEROUPPER
	RET
