//go:build amd64

#include "textflag.h"

// The AVX2 kernels of both element types, the Euclidean distance tile,
// the conversions, the strided run copy and the feature probes of the
// gate. The kernels are dispatched only after the init in simd_amd64.go
// has verified CPU and OS support (useASM). The arithmetic routines
// vectorise across output elements and never along a sum: one lane is
// one output, VMULPD/VMULPS rounds the product, VADDPD/VADDPS rounds the
// sum — the two roundings and the p order of the Go bodies in matmul.go,
// so every result is the same bits. No FMA here. Every routine that
// touches a YMM register executes VZEROUPPER before returning.
//
// A form that runs in both element types — the a·bᵀ tile, the axpy, the
// weight gradient's axpy and momentum SGD — is written once, as a
// #define body that a float64 and a float32 TEXT block each instantiate.
// The macro's arguments are the type's mnemonics (…PD and …SD, or …PS and
// …SS) and immediates: element size, shift and mask counts, prefetch
// step. A YMM register holds 4 float64 lanes or 8 float32 ones. Three
// rules keep a body sound:
//   - a body reads no argument: its TEXT block's prologue makes every
//     name+off(FP) load, so go vet checks each offset against the
//     function it belongs to (TestMacrosReadNoArguments);
//   - a comment inside a body is a block comment, since a line comment
//     would swallow the line's continuation;
//   - labels are scoped to their TEXT block, so both instantiations use
//     the body's label names.

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

// The a·bᵀ tile: four broadcast rows against one packed panel of four
// rows (float64) or eight (float32): lane c of accumulator r is output
// (r, c), p ascending, product then sum. Row r's value at p is
// rows[r][off[p]]: a row base plus one offset table shared by the four
// rows. With off[p] = p and bases r·k the rows are four consecutive rows
// of a row-major operand; with a convolution's tap offsets and four
// output pixels' top-left taps they are four rows of the unroll, read in
// place in the padded batch. One of the two operands carries the
// skip-zero rule: the broadcast values (maskPanel false: the panel is bᵀ)
// or the panel's (maskPanel true: the panel is four rows of the product's
// a, the broadcast rows its b, and the caller stores the tile
// transposed). The first pass adds every term. An Inf or NaN in the other
// operand makes every sum it enters non-finite — a panel column's in all
// four rows, a broadcast row's in all lanes — so when all the tile's sums
// come out finite that operand holds none, the skip-zero rule changes
// nothing, and the first pass is the answer. Otherwise the second pass
// applies the rule: per p it compares the skip operand NEQ_UQ against
// zero (all-ones unless it is ±0; NaN compares true, as Go's `av == 0` is
// false for NaN) and ANDs each product with that mask, so a skipped term
// adds +0. DESIGN.md §10 proves both passes equal the Go body.
//
// Consecutive rows of a row-major operand are followed by the next
// tile's, so each step of the first pass also prefetches STEP bytes, four
// elements (32 for float64, 16 for float32), of the next tile's four rows:
// over k steps, the 4·SIZE·k bytes that start SIZE·k bytes after the
// fourth row's base. A prefetch past the end of an operand is a hint that
// faults nothing.
//
// The tile is two macros around the prologue's load of maskPanel. On
// entry to TILE_FIRST_PASS, SI, R8, R9 and R10 hold the four row bases,
// R12 off, DI panel, CX k and DX out; it leaves the masked pass's zero
// in Y15, all-ones in Y14 and zero in Y13. TILE_MASKED_PASS takes
// maskPanel in AX. When the first pass stands, TILE_FIRST_PASS jumps to
// TILE_MASKED_PASS's tile_store, so a TEXT block instantiates both.
#define TILE_FIRST_PASS(MOVUP, BCAST, MULP, ADDP, SUBP, XORP, CMPP, MSKP, SIZE, STEP) \
	LEAQ (R10)(CX*SIZE), R11 \
	MOVQ DI, BX \
	XORP Y0, Y0, Y0 \
	XORP Y1, Y1, Y1 \
	XORP Y2, Y2, Y2 \
	XORP Y3, Y3, Y3 \
	XORQ AX, AX \
tile_loop: \
	PREFETCHT0 (R11) \
	ADDQ $STEP, R11 \
	MOVL (R12)(AX*4), R13 \
	MOVUP (DI), Y4 \
	BCAST (SI)(R13*SIZE), Y5 \
	BCAST (R8)(R13*SIZE), Y6 \
	BCAST (R9)(R13*SIZE), Y7 \
	BCAST (R10)(R13*SIZE), Y8 \
	MULP Y4, Y5, Y5 \
	MULP Y4, Y6, Y6 \
	MULP Y4, Y7, Y7 \
	MULP Y4, Y8, Y8 \
	ADDP Y5, Y0, Y0 \
	ADDP Y6, Y1, Y1 \
	ADDP Y7, Y2, Y2 \
	ADDP Y8, Y3, Y3 \
	ADDQ $32, DI \
	INCQ AX \
	CMPQ AX, CX \
	JLT  tile_loop \
	SUBP Y0, Y0, Y9 \
	SUBP Y1, Y1, Y10 \
	SUBP Y2, Y2, Y11 \
	SUBP Y3, Y3, Y12 \
	ADDP Y10, Y9, Y9 \
	ADDP Y12, Y11, Y11 \
	ADDP Y11, Y9, Y9 \
	CMPP $3, Y9, Y9, Y9 \
	MSKP Y9, AX \
	TESTL AX, AX \
	JZ   tile_store \
	MOVQ BX, DI \
	XORP Y0, Y0, Y0 \
	XORP Y1, Y1, Y1 \
	XORP Y2, Y2, Y2 \
	XORP Y3, Y3, Y3 \
	XORP Y15, Y15, Y15 \
	CMPP $0, Y15, Y15, Y14 \
	XORP Y13, Y13, Y13

#define TILE_MASKED_PASS(MOVUP, BCAST, MULP, ADDP, XORP, CMPP, ORP, ANDP, SIZE) \
	TESTL AX, AX \
	JNZ  tile_masked_start \
	MOVUP Y14, Y13 \
	XORP Y14, Y14, Y14 \
tile_masked_start: \
	/* Y13 is all-ones when the panel carries no mask, Y14 when the \
	   broadcast rows carry none; Y9 is the panel's mask for this p, Y10 \
	   the mask of the row being added. */ \
	XORQ AX, AX \
tile_masked: \
	MOVL (R12)(AX*4), R13 \
	MOVUP (DI), Y4 \
	CMPP $4, Y15, Y4, Y9 \
	ORP Y13, Y9, Y9 \
	BCAST (SI)(R13*SIZE), Y5 \
	BCAST (R8)(R13*SIZE), Y6 \
	BCAST (R9)(R13*SIZE), Y7 \
	BCAST (R10)(R13*SIZE), Y8 \
	CMPP $4, Y15, Y5, Y10 \
	ORP Y14, Y10, Y10 \
	ANDP Y9, Y10, Y10 \
	MULP Y4, Y5, Y5 \
	ANDP Y10, Y5, Y5 \
	ADDP Y5, Y0, Y0 \
	CMPP $4, Y15, Y6, Y10 \
	ORP Y14, Y10, Y10 \
	ANDP Y9, Y10, Y10 \
	MULP Y4, Y6, Y6 \
	ANDP Y10, Y6, Y6 \
	ADDP Y6, Y1, Y1 \
	CMPP $4, Y15, Y7, Y10 \
	ORP Y14, Y10, Y10 \
	ANDP Y9, Y10, Y10 \
	MULP Y4, Y7, Y7 \
	ANDP Y10, Y7, Y7 \
	ADDP Y7, Y2, Y2 \
	CMPP $4, Y15, Y8, Y10 \
	ORP Y14, Y10, Y10 \
	ANDP Y9, Y10, Y10 \
	MULP Y4, Y8, Y8 \
	ANDP Y10, Y8, Y8 \
	ADDP Y8, Y3, Y3 \
	ADDQ $32, DI \
	INCQ AX \
	CMPQ AX, CX \
	JLT  tile_masked \
tile_store: \
	MOVUP Y0, (DX) \
	MOVUP Y1, 32(DX) \
	MOVUP Y2, 64(DX) \
	MOVUP Y3, 96(DX) \
	VZEROUPPER \
	RET

// func f64TransBTileAVX2(rows *[4]*float64, off *int32, panel *float64, k int, out *float64, maskPanel bool)
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
	TILE_FIRST_PASS(VMOVUPD, VBROADCASTSD, VMULPD, VADDPD, VSUBPD, VXORPD, VCMPPD, VMOVMSKPD, 8, 32)
	MOVBLZX maskPanel+40(FP), AX
	TILE_MASKED_PASS(VMOVUPD, VBROADCASTSD, VMULPD, VADDPD, VXORPD, VCMPPD, VORPD, VANDPD, 8)

// func f32TransBTileAVX2(rows *[4]*float32, off *int32, panel *float32, k int, out *float32, maskPanel bool)
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
	TILE_FIRST_PASS(VMOVUPS, VBROADCASTSS, VMULPS, VADDPS, VSUBPS, VXORPS, VCMPPS, VMOVMSKPS, 4, 16)
	MOVBLZX maskPanel+40(FP), AX
	TILE_MASKED_PASS(VMOVUPS, VBROADCASTSS, VMULPS, VADDPS, VXORPS, VCMPPS, VORPS, VANDPS, 4)

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

// The axpy: dst[i] = (((dst[i] + alpha[0]*x[0][i]) + alpha[1]*x[1][i])
// + …) over the first terms (1–4) of x and alpha, each product rounded
// before its sum: one load and one store of dst per element for up to
// four sequential axpys. Two registers per main-loop iteration (8
// doubles, 16 floats: n >> PAIRSHIFT iterations), one register step when
// n & LANES is set, then n & LANEMASK scalar steps with the same
// roundings. A term past terms is neither read nor added; the branches
// that skip them go the same way on every iteration of a call.
//
// On entry DI holds dst, AX x, BX alpha, R12 terms and CX n.
#define AXPY(BCAST, MOVUP, MULP, ADDP, MOVS, MULS, ADDS, SIZE, PAIRSHIFT, LANES, LANEMASK) \
	MOVQ 0(AX), R8 \
	MOVQ 8(AX), R9 \
	MOVQ 16(AX), R10 \
	MOVQ 24(AX), R11 \
	BCAST 0(BX), Y12 \
	BCAST SIZE(BX), Y13 \
	BCAST (2*SIZE)(BX), Y14 \
	BCAST (3*SIZE)(BX), Y15 \
	XORQ SI, SI \
	MOVQ CX, DX \
	SHRQ $PAIRSHIFT, DX \
	JZ   axpy_mid \
axpy_pair: \
	MOVUP (DI)(SI*1), Y0 \
	MOVUP 32(DI)(SI*1), Y1 \
	MULP (R8)(SI*1), Y12, Y2 \
	MULP 32(R8)(SI*1), Y12, Y3 \
	ADDP Y2, Y0, Y0 \
	ADDP Y3, Y1, Y1 \
	CMPQ R12, $2 \
	JLT  axpy_store_pair \
	MULP (R9)(SI*1), Y13, Y2 \
	MULP 32(R9)(SI*1), Y13, Y3 \
	ADDP Y2, Y0, Y0 \
	ADDP Y3, Y1, Y1 \
	CMPQ R12, $3 \
	JLT  axpy_store_pair \
	MULP (R10)(SI*1), Y14, Y2 \
	MULP 32(R10)(SI*1), Y14, Y3 \
	ADDP Y2, Y0, Y0 \
	ADDP Y3, Y1, Y1 \
	CMPQ R12, $4 \
	JLT  axpy_store_pair \
	MULP (R11)(SI*1), Y15, Y2 \
	MULP 32(R11)(SI*1), Y15, Y3 \
	ADDP Y2, Y0, Y0 \
	ADDP Y3, Y1, Y1 \
axpy_store_pair: \
	MOVUP Y0, (DI)(SI*1) \
	MOVUP Y1, 32(DI)(SI*1) \
	ADDQ $64, SI \
	DECQ DX \
	JNZ  axpy_pair \
axpy_mid: \
	TESTQ $LANES, CX \
	JZ   axpy_tail_setup \
	MOVUP (DI)(SI*1), Y0 \
	MULP (R8)(SI*1), Y12, Y2 \
	ADDP Y2, Y0, Y0 \
	CMPQ R12, $2 \
	JLT  axpy_store_one \
	MULP (R9)(SI*1), Y13, Y2 \
	ADDP Y2, Y0, Y0 \
	CMPQ R12, $3 \
	JLT  axpy_store_one \
	MULP (R10)(SI*1), Y14, Y2 \
	ADDP Y2, Y0, Y0 \
	CMPQ R12, $4 \
	JLT  axpy_store_one \
	MULP (R11)(SI*1), Y15, Y2 \
	ADDP Y2, Y0, Y0 \
axpy_store_one: \
	MOVUP Y0, (DI)(SI*1) \
	ADDQ $32, SI \
axpy_tail_setup: \
	ANDQ $LANEMASK, CX \
	JZ   axpy_done \
axpy_tail: \
	MOVS (DI)(SI*1), X0 \
	MULS (R8)(SI*1), X12, X2 \
	ADDS X2, X0, X0 \
	CMPQ R12, $2 \
	JLT  axpy_store_scalar \
	MULS (R9)(SI*1), X13, X2 \
	ADDS X2, X0, X0 \
	CMPQ R12, $3 \
	JLT  axpy_store_scalar \
	MULS (R10)(SI*1), X14, X2 \
	ADDS X2, X0, X0 \
	CMPQ R12, $4 \
	JLT  axpy_store_scalar \
	MULS (R11)(SI*1), X15, X2 \
	ADDS X2, X0, X0 \
axpy_store_scalar: \
	MOVS X0, (DI)(SI*1) \
	ADDQ $SIZE, SI \
	DECQ CX \
	JNZ  axpy_tail \
axpy_done: \
	VZEROUPPER \
	RET

// func f64AxpyAVX2(dst *float64, x *[4]*float64, alpha *[4]float64, terms, n int)
TEXT ·f64AxpyAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), AX
	MOVQ alpha+16(FP), BX
	MOVQ terms+24(FP), R12
	MOVQ n+32(FP), CX
	AXPY(VBROADCASTSD, VMOVUPD, VMULPD, VADDPD, VMOVSD, VMULSD, VADDSD, 8, 3, 4, 3)

// func f32AxpyAVX2(dst *float32, x *[4]*float32, alpha *[4]float32, terms, n int)
TEXT ·f32AxpyAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), AX
	MOVQ alpha+16(FP), BX
	MOVQ terms+24(FP), R12
	MOVQ n+32(FP), CX
	AXPY(VBROADCASTSS, VMOVUPS, VMULPS, VADDPS, VMOVSS, VMULSS, VADDSS, 4, 4, 8, 7)

// The weight gradient's axpy, read in place: for each of the n runs, in
// order, dst[i] = (((dst[i] + alpha[0]*x[0][runs[r]+i]) + alpha[1]*
// x[1][runs[r]+i]) + …) over the run's kw elements of dst (run r's are
// r·kw…r·kw+kw−1) and the first terms (1–4) of x and alpha, each product
// rounded before its sum — the axpy's chain, per run. A run is
// kw >> LANESHIFT full-register steps, one half-register step when
// kw & HALF is set, then kw & HALFMASK scalar steps with the same
// roundings, so nothing outside a run is read or written. A term past
// terms is neither read nor added; the branches that skip them go the
// same way on every step of a call.
//
// On entry DI holds dst, AX x, BX alpha, R12 terms, R13 runs, R14 n and
// CX kw; SIZESHIFT turns a run offset into bytes.
#define CONV_AXPY(BCAST, MOVUP, MULP, ADDP, MOVS, MULS, ADDS, SIZE, SIZESHIFT, LANESHIFT, LANEMASK, HALF, HALFMASK) \
	MOVQ 0(AX), R8 \
	MOVQ 8(AX), R9 \
	MOVQ 16(AX), R10 \
	MOVQ 24(AX), R11 \
	BCAST 0(BX), Y12 \
	BCAST SIZE(BX), Y13 \
	BCAST (2*SIZE)(BX), Y14 \
	BCAST (3*SIZE)(BX), Y15 \
	MOVQ CX, BX \
	SHRQ $LANESHIFT, CX \
	ANDQ $LANEMASK, BX \
conv_run: \
	MOVLQSX (R13), SI \
	SHLQ $SIZESHIFT, SI \
	MOVQ CX, DX \
	TESTQ DX, DX \
	JZ   conv_half \
conv_full: \
	MOVUP (DI), Y0 \
	MULP (R8)(SI*1), Y12, Y2 \
	ADDP Y2, Y0, Y0 \
	CMPQ R12, $2 \
	JLT  conv_store_full \
	MULP (R9)(SI*1), Y13, Y2 \
	ADDP Y2, Y0, Y0 \
	CMPQ R12, $3 \
	JLT  conv_store_full \
	MULP (R10)(SI*1), Y14, Y2 \
	ADDP Y2, Y0, Y0 \
	CMPQ R12, $4 \
	JLT  conv_store_full \
	MULP (R11)(SI*1), Y15, Y2 \
	ADDP Y2, Y0, Y0 \
conv_store_full: \
	MOVUP Y0, (DI) \
	ADDQ $32, DI \
	ADDQ $32, SI \
	DECQ DX \
	JNZ  conv_full \
conv_half: \
	TESTQ $HALF, BX \
	JZ   conv_tail_setup \
	MOVUP (DI), X0 \
	MULP (R8)(SI*1), X12, X2 \
	ADDP X2, X0, X0 \
	CMPQ R12, $2 \
	JLT  conv_store_half \
	MULP (R9)(SI*1), X13, X2 \
	ADDP X2, X0, X0 \
	CMPQ R12, $3 \
	JLT  conv_store_half \
	MULP (R10)(SI*1), X14, X2 \
	ADDP X2, X0, X0 \
	CMPQ R12, $4 \
	JLT  conv_store_half \
	MULP (R11)(SI*1), X15, X2 \
	ADDP X2, X0, X0 \
conv_store_half: \
	MOVUP X0, (DI) \
	ADDQ $16, DI \
	ADDQ $16, SI \
conv_tail_setup: \
	MOVQ BX, DX \
	ANDQ $HALFMASK, DX \
	JZ   conv_next \
conv_tail: \
	MOVS (DI), X0 \
	MULS (R8)(SI*1), X12, X2 \
	ADDS X2, X0, X0 \
	CMPQ R12, $2 \
	JLT  conv_store_scalar \
	MULS (R9)(SI*1), X13, X2 \
	ADDS X2, X0, X0 \
	CMPQ R12, $3 \
	JLT  conv_store_scalar \
	MULS (R10)(SI*1), X14, X2 \
	ADDS X2, X0, X0 \
	CMPQ R12, $4 \
	JLT  conv_store_scalar \
	MULS (R11)(SI*1), X15, X2 \
	ADDS X2, X0, X0 \
conv_store_scalar: \
	MOVS X0, (DI) \
	ADDQ $SIZE, DI \
	ADDQ $SIZE, SI \
	DECQ DX \
	JNZ  conv_tail \
conv_next: \
	ADDQ $4, R13 \
	DECQ R14 \
	JNZ  conv_run \
	VZEROUPPER \
	RET

// func f64ConvAxpyAVX2(dst *float64, x *[4]*float64, alpha *[4]float64, terms int, runs *int32, n, kw int)
TEXT ·f64ConvAxpyAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), AX
	MOVQ alpha+16(FP), BX
	MOVQ terms+24(FP), R12
	MOVQ runs+32(FP), R13
	MOVQ n+40(FP), R14
	MOVQ kw+48(FP), CX
	CONV_AXPY(VBROADCASTSD, VMOVUPD, VMULPD, VADDPD, VMOVSD, VMULSD, VADDSD, 8, 3, 2, 3, 2, 1)

// func f32ConvAxpyAVX2(dst *float32, x *[4]*float32, alpha *[4]float32, terms int, runs *int32, n, kw int)
TEXT ·f32ConvAxpyAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), AX
	MOVQ alpha+16(FP), BX
	MOVQ terms+24(FP), R12
	MOVQ runs+32(FP), R13
	MOVQ n+40(FP), R14
	MOVQ kw+48(FP), CX
	CONV_AXPY(VBROADCASTSS, VMOVUPS, VMULPS, VADDPS, VMOVSS, VMULSS, VADDSS, 4, 2, 3, 7, 4, 3)

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

// Momentum SGD: one step over n > 0 elements, n a multiple of LANES (4
// float64, 8 float32), of the non-overlapping w, grad and v: per lane
//
//	eff = r(w·wd) + grad;  v = eff + r(v·mom);  w = w − r(v·lr)
//
// MULP rounds each product before the ADDP/SUBP that takes it, as the Go
// body momentumGo does. A product's or a sum's value does not depend on
// its operands' order; when both operands are NaN the first source's
// payload wins, and every instruction here takes its operands in the
// order go1.24 compiles the Go body's scalar loop, so the payloads agree
// with it too. Two registers per loop iteration (n >> PAIRSHIFT
// iterations), then one register step when n & LANES is set.
//
// On entry DI holds w, SI grad, DX v, CX n, and Y13, Y14 and Y15 lr, mom
// and wd in every lane.
#define MOMENTUM_SGD(MOVUP, MULP, ADDP, SUBP, PAIRSHIFT, LANES) \
	XORQ AX, AX \
	MOVQ CX, BX \
	SHRQ $PAIRSHIFT, BX \
	JZ   sgd_one \
sgd_pair: \
	MOVUP (DI)(AX*1), Y0 \
	MOVUP 32(DI)(AX*1), Y1 \
	MULP Y15, Y0, Y2 \
	MULP Y15, Y1, Y3 \
	ADDP (SI)(AX*1), Y2, Y2 \
	ADDP 32(SI)(AX*1), Y3, Y3 \
	MOVUP (DX)(AX*1), Y4 \
	MOVUP 32(DX)(AX*1), Y5 \
	MULP Y14, Y4, Y4 \
	MULP Y14, Y5, Y5 \
	ADDP Y4, Y2, Y2 \
	ADDP Y5, Y3, Y3 \
	MOVUP Y2, (DX)(AX*1) \
	MOVUP Y3, 32(DX)(AX*1) \
	MULP Y13, Y2, Y2 \
	MULP Y13, Y3, Y3 \
	SUBP Y2, Y0, Y0 \
	SUBP Y3, Y1, Y1 \
	MOVUP Y0, (DI)(AX*1) \
	MOVUP Y1, 32(DI)(AX*1) \
	ADDQ $64, AX \
	DECQ BX \
	JNZ  sgd_pair \
sgd_one: \
	TESTQ $LANES, CX \
	JZ   sgd_done \
	MOVUP (DI)(AX*1), Y0 \
	MULP Y15, Y0, Y2 \
	ADDP (SI)(AX*1), Y2, Y2 \
	MOVUP (DX)(AX*1), Y4 \
	MULP Y14, Y4, Y4 \
	ADDP Y4, Y2, Y2 \
	MOVUP Y2, (DX)(AX*1) \
	MULP Y13, Y2, Y2 \
	SUBP Y2, Y0, Y0 \
	MOVUP Y0, (DI)(AX*1) \
sgd_done: \
	VZEROUPPER \
	RET

// func f64MomentumSGDAVX2(w, grad, v *float64, n int, lr, mom, wd float64)
TEXT ·f64MomentumSGDAVX2(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSD lr+32(FP), Y13
	VBROADCASTSD mom+40(FP), Y14
	VBROADCASTSD wd+48(FP), Y15
	MOMENTUM_SGD(VMOVUPD, VMULPD, VADDPD, VSUBPD, 3, 4)

// func f32MomentumSGDAVX2(w, grad, v *float32, n int, lr, mom, wd float32)
TEXT ·f32MomentumSGDAVX2(SB), NOSPLIT, $0-44
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSS lr+32(FP), Y13
	VBROADCASTSS mom+36(FP), Y14
	VBROADCASTSS wd+40(FP), Y15
	MOMENTUM_SGD(VMOVUPS, VMULPS, VADDPS, VSUBPS, 4, 8)

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
