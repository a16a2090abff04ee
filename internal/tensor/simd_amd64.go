//go:build amd64

package tensor

import "unsafe"

// The AVX2 kernels (simd_amd64.s) and the runtime feature detection that
// gates them. The toolchain baseline (GOAMD64=v1) cannot assume AVX, so
// the assembly is only dispatched after CPUID confirms AVX2 and XGETBV
// confirms the OS saves the YMM state; the init below runs once at
// package init, and the kernels read the resulting useASM flag. Every
// routine multiplies and adds as two instructions, never FMA, and a
// vector lane is always one output element: every sum keeps the order
// and the roundings of the Go body it stands in for. A form that runs in
// both element types is one assembly body, so its float64 and float32
// declarations differ only in the element type and the lane count.

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

// f64TransBTileAVX2 computes the 4×4 tile out[r*4+c] = Σ_p
// rows[r][off[p]] · panel[p*4+c] over p ascending, skipping (as an exact
// masked add of +0) every term whose broadcast value is ±0 — or, when
// maskPanel is set, every term whose panel value is. Each row base
// addresses every element its offsets reach, off holds k offsets, panel k
// rows of 4, out 16 floats; k must be > 0.
//
//go:noescape
func f64TransBTileAVX2(rows *[4]*float64, off *int32, panel *float64, k int, out *float64, maskPanel bool)

// f32TransBTileAVX2 is f64TransBTileAVX2 at eight lanes: the 4×8 tile
// out[r*8+c], panel k rows of 8, out 32 floats.
//
//go:noescape
func f32TransBTileAVX2(rows *[4]*float32, off *int32, panel *float32, k int, out *float32, maskPanel bool)

// f64EuclideanTileAVX2 computes the 4×4 tile out[r*4+c] = Σ_p
// (a[r][p] − panel[p*4+c])² over p ascending from +0, the difference, the
// square and the sum each rounded. a holds four row pointers of k floats
// each, panel k rows of 4; k must be > 0.
//
//go:noescape
func f64EuclideanTileAVX2(a *[4]*float64, panel *float64, k int, out *[16]float64)

// f64AxpyAVX2 accumulates dst[i] += alpha[t]*x[t][i] for t = 0 … terms−1
// (1–4) in turn over n > 0 elements, each product rounded before its sum.
//
//go:noescape
func f64AxpyAVX2(dst *float64, x *[4]*float64, alpha *[4]float64, terms, n int)

// f32AxpyAVX2 is f64AxpyAVX2 at eight lanes.
//
//go:noescape
func f32AxpyAVX2(dst *float32, x *[4]*float32, alpha *[4]float32, terms, n int)

// f64ConvAxpyAVX2 accumulates, for each of n > 0 runs r and i < kw,
// dst[r*kw+i] += alpha[t]*x[t][runs[r]+i] for t = 0 … terms−1 (1–4) in
// turn, each product rounded before its sum: a convolution's weight
// gradient, read in place in the padded batch, one run of kw > 0 taps
// per (c, ky). Each x[t] addresses every element its run offsets reach.
//
//go:noescape
func f64ConvAxpyAVX2(dst *float64, x *[4]*float64, alpha *[4]float64, terms int, runs *int32, n, kw int)

// f32ConvAxpyAVX2 is f64ConvAxpyAVX2 at eight lanes.
//
//go:noescape
func f32ConvAxpyAVX2(dst *float32, x *[4]*float32, alpha *[4]float32, terms int, runs *int32, n, kw int)

// f64MomentumSGDAVX2 applies one momentum SGD step to n > 0 elements (a
// multiple of 4) of the non-overlapping w, grad and v: eff = r(w·wd) +
// grad, v = eff + r(v·mom), w = w − r(v·lr), each product rounded before
// its sum.
//
//go:noescape
func f64MomentumSGDAVX2(w, grad, v *float64, n int, lr, mom, wd float64)

// f32MomentumSGDAVX2 is f64MomentumSGDAVX2 at eight lanes: n > 0 is a
// multiple of 8.
//
//go:noescape
func f32MomentumSGDAVX2(w, grad, v *float32, n int, lr, mom, wd float32)

// f64ToF32AVX2 rounds n > 0 float64s (a multiple of 4) from src into dst,
// to nearest even.
//
//go:noescape
func f64ToF32AVX2(dst *float32, src *float64, n int)

// f32ToF64AVX2 widens n > 0 float32s (a multiple of 4) from src into dst.
//
//go:noescape
func f32ToF64AVX2(dst *float64, src *float32, n int)

// copyRunsAVX2 copies n runs of runBytes ≥ 4 bytes each: run i from
// src + i*srcStride to dst + i*dstStride (strides in bytes). It reads
// and writes nothing outside the runs; n must be > 0.
//
//go:noescape
func copyRunsAVX2(dst, src unsafe.Pointer, runBytes, n, dstStride, srcStride int)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return
	}
	// OS must save XMM (bit 1) and YMM (bit 2) register state.
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	if ebx7&avx2Bit == 0 {
		return
	}
	useASM = true
}
