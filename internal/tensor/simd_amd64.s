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

// func f32TransBTileAVX2(a, panel *float32, k int, out *float32)
//
// f64TransBTileAVX2 at eight lanes: four a-rows (stride k) against one
// packed panel of eight b-rows, lane c of accumulator r is output (r, c);
// a first pass over every term, kept when row 0's sums are finite, and
// the masked skip-zero pass otherwise. Each step of the first pass
// prefetches 16 bytes of the next tile's rows (the 16k bytes after
// these).
TEXT ·f32TransBTileAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ panel+8(FP), DI
	MOVQ k+16(FP), CX
	MOVQ out+24(FP), DX
	LEAQ (SI)(CX*4), R8
	LEAQ (R8)(CX*4), R9
	LEAQ (R9)(CX*4), R10
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
	VMOVUPS (DI), Y4
	VBROADCASTSS (SI)(AX*4), Y5
	VBROADCASTSS (R8)(AX*4), Y6
	VBROADCASTSS (R9)(AX*4), Y7
	VBROADCASTSS (R10)(AX*4), Y8
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
	XORQ AX, AX
tile32_masked:
	VMOVUPS (DI), Y4
	VBROADCASTSS (SI)(AX*4), Y5
	VBROADCASTSS (R8)(AX*4), Y6
	VBROADCASTSS (R9)(AX*4), Y7
	VBROADCASTSS (R10)(AX*4), Y8
	VCMPPS $4, Y15, Y5, Y9
	VCMPPS $4, Y15, Y6, Y10
	VCMPPS $4, Y15, Y7, Y11
	VCMPPS $4, Y15, Y8, Y12
	VMULPS Y4, Y5, Y5
	VMULPS Y4, Y6, Y6
	VMULPS Y4, Y7, Y7
	VMULPS Y4, Y8, Y8
	VANDPS Y9, Y5, Y5
	VANDPS Y10, Y6, Y6
	VANDPS Y11, Y7, Y7
	VANDPS Y12, Y8, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
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

// func f32AxpyAVX2(dst, x *float32, alpha float32, n int)
//
// dst[i] += alpha*x[i], product then sum; 16 floats per main-loop
// iteration, one 8-wide step, then a scalar tail with the same two
// roundings.
TEXT ·f32AxpyAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSS alpha+16(FP), Y0
	MOVQ n+24(FP), CX
	MOVQ CX, DX
	SHRQ $4, DX
	JZ   axpy32_mid
axpy32_loop16:
	VMULPS (SI), Y0, Y1
	VMULPS 32(SI), Y0, Y2
	VADDPS (DI), Y1, Y1
	VADDPS 32(DI), Y2, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  axpy32_loop16
axpy32_mid:
	TESTQ $8, CX
	JZ   axpy32_tail_setup
	VMULPS (SI), Y0, Y1
	VADDPS (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
axpy32_tail_setup:
	ANDQ $7, CX
	JZ   axpy32_done
axpy32_tail:
	VMULSS (SI), X0, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  axpy32_tail
axpy32_done:
	VZEROUPPER
	RET
