//go:build amd64

#include "textflag.h"

// Float32 kernel primitives, AVX2+FMA. Dispatched only after the init in
// simd_amd64.go has verified CPU and OS support (useASM). Every
// routine executes VZEROUPPER before returning so mixed AVX/SSE code in
// the caller pays no state-transition penalty.
//
// Summation order inside each routine is a fixed function of n, so the
// kernels are deterministic run-to-run and across worker counts.

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

// func f32DotAVX2(a, b *float32, n int) float32
//
// Four independent YMM accumulator chains hide FMA latency; 32 floats
// per main-loop iteration, then an 8-wide loop, then a scalar tail.
TEXT ·f32DotAVX2(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ CX, DX
	SHRQ $5, DX
	JZ   dot_mid
dot_loop32:
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VFMADD231PS (DI), Y4, Y0
	VFMADD231PS 32(DI), Y5, Y1
	VFMADD231PS 64(DI), Y6, Y2
	VFMADD231PS 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ DX
	JNZ  dot_loop32
dot_mid:
	ANDQ $31, CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   dot_reduce
dot_loop8:
	VMOVUPS (SI), Y4
	VFMADD231PS (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ DX
	JNZ  dot_loop8
dot_reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	ANDQ $7, CX
	JZ   dot_done
dot_tail:
	VMOVSS (SI), X2
	VFMADD231SS (DI), X2, X0
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  dot_tail
dot_done:
	VZEROUPPER
	MOVSS X0, ret+24(FP)
	RET

// func f32Dot4AVX2(a, b0, b1, b2, b3 *float32, n int) (r0, r1, r2, r3 float32)
//
// Four dot products sharing the a-row loads: the j-blocked inner kernel
// of MatMulTransB32Into. One accumulator per output keeps the four FMA
// chains independent.
TEXT ·f32Dot4AVX2(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ n+40(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   dot4_reduce
dot4_loop8:
	VMOVUPS (SI), Y4
	VFMADD231PS (R8), Y4, Y0
	VFMADD231PS (R9), Y4, Y1
	VFMADD231PS (R10), Y4, Y2
	VFMADD231PS (R11), Y4, Y3
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ DX
	JNZ  dot4_loop8
dot4_reduce:
	VEXTRACTF128 $1, Y0, X4
	VADDPS X4, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VEXTRACTF128 $1, Y1, X4
	VADDPS X4, X1, X1
	VHADDPS X1, X1, X1
	VHADDPS X1, X1, X1
	VEXTRACTF128 $1, Y2, X4
	VADDPS X4, X2, X2
	VHADDPS X2, X2, X2
	VHADDPS X2, X2, X2
	VEXTRACTF128 $1, Y3, X4
	VADDPS X4, X3, X3
	VHADDPS X3, X3, X3
	VHADDPS X3, X3, X3
	ANDQ $7, CX
	JZ   dot4_done
dot4_tail:
	VMOVSS (SI), X4
	VFMADD231SS (R8), X4, X0
	VFMADD231SS (R9), X4, X1
	VFMADD231SS (R10), X4, X2
	VFMADD231SS (R11), X4, X3
	ADDQ $4, SI
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	DECQ CX
	JNZ  dot4_tail
dot4_done:
	VZEROUPPER
	MOVSS X0, r0+48(FP)
	MOVSS X1, r1+52(FP)
	MOVSS X2, r2+56(FP)
	MOVSS X3, r3+60(FP)
	RET

// func f32AxpyAVX2(dst, x *float32, alpha float32, n int)
//
// dst[i] += alpha*x[i]; 16 floats per main-loop iteration.
TEXT ·f32AxpyAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSS alpha+16(FP), Y0
	MOVQ n+24(FP), CX
	MOVQ CX, DX
	SHRQ $4, DX
	JZ   axpy_mid
axpy_loop16:
	VMOVUPS (DI), Y1
	VMOVUPS 32(DI), Y2
	VFMADD231PS (SI), Y0, Y1
	VFMADD231PS 32(SI), Y0, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  axpy_loop16
axpy_mid:
	ANDQ $15, CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   axpy_tail_setup
	VMOVUPS (DI), Y1
	VFMADD231PS (SI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
axpy_tail_setup:
	ANDQ $7, CX
	JZ   axpy_done
axpy_tail:
	VMOVSS (DI), X1
	VMOVSS (SI), X2
	VFMADD231SS X0, X2, X1
	VMOVSS X1, (DI)
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  axpy_tail
axpy_done:
	VZEROUPPER
	RET

// func f32Axpy4AVX2(dst, x0, x1, x2, x3 *float32, a0, a1, a2, a3 float32, n int)
//
// dst[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i], accumulated in
// x0..x3 order per element (the scalar tail matches the packed loop).
// One dst read-modify-write pass for four source rows: the k-blocked
// inner kernel of MatMul32Into and MatMulTransA32Into.
TEXT ·f32Axpy4AVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ x0+8(FP), R8
	MOVQ x1+16(FP), R9
	MOVQ x2+24(FP), R10
	MOVQ x3+32(FP), R11
	VBROADCASTSS a0+40(FP), Y0
	VBROADCASTSS a1+44(FP), Y1
	VBROADCASTSS a2+48(FP), Y2
	VBROADCASTSS a3+52(FP), Y3
	MOVQ n+56(FP), CX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   axpy4_tail_setup
axpy4_loop8:
	VMOVUPS (DI), Y4
	VFMADD231PS (R8), Y0, Y4
	VFMADD231PS (R9), Y1, Y4
	VFMADD231PS (R10), Y2, Y4
	VFMADD231PS (R11), Y3, Y4
	VMOVUPS Y4, (DI)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, DI
	DECQ DX
	JNZ  axpy4_loop8
axpy4_tail_setup:
	ANDQ $7, CX
	JZ   axpy4_done
axpy4_tail:
	VMOVSS (DI), X4
	VMOVSS (R8), X5
	VFMADD231SS X0, X5, X4
	VMOVSS (R9), X5
	VFMADD231SS X1, X5, X4
	VMOVSS (R10), X5
	VFMADD231SS X2, X5, X4
	VMOVSS (R11), X5
	VFMADD231SS X3, X5, X4
	VMOVSS X4, (DI)
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	ADDQ $4, DI
	DECQ CX
	JNZ  axpy4_tail
axpy4_done:
	VZEROUPPER
	RET
