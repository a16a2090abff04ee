//go:build amd64

package tensor

import "unsafe"

// The float64 kernel primitives, the Euclidean distance tile, the
// momentum SGD and conversion streams and the run copy, AVX2
// implementations (simd64_amd64.s), dispatched behind the same useASM
// gate as the float32 pair. Every routine multiplies and adds as
// two instructions, never FMA, and a vector lane is always one output
// element: every sum keeps the order and the roundings of the Go body it
// stands in for.

// f64TransBTileAVX2 computes the 4×4 tile out[r*4+c] = Σ_p
// rows[r][off[p]] · panel[p*4+c] over p ascending, skipping (as an exact
// masked add of +0) every term whose broadcast value is ±0 — or, when
// maskPanel is set, every term whose panel value is. Each row base
// addresses every element its offsets reach, off holds k offsets, panel k
// rows of 4, out 16 floats; k must be > 0.
//
//go:noescape
func f64TransBTileAVX2(rows *[4]*float64, off *int32, panel *float64, k int, out *float64, maskPanel bool)

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

// f64ConvAxpyAVX2 accumulates, for each of n > 0 runs r and i < kw,
// dst[r*kw+i] += alpha[t]*x[t][runs[r]+i] for t = 0 … terms−1 (1–4) in
// turn, each product rounded before its sum: a convolution's weight
// gradient, read in place in the padded batch, one run of kw > 0 taps
// per (c, ky). Each x[t] addresses every element its run offsets reach.
//
//go:noescape
func f64ConvAxpyAVX2(dst *float64, x *[4]*float64, alpha *[4]float64, terms int, runs *int32, n, kw int)

// f64MomentumSGDAVX2 applies one momentum SGD step to n > 0 elements (a
// multiple of 4) of the non-overlapping w, grad and v: eff = r(w·wd) +
// grad, v = eff + r(v·mom), w = w − r(v·lr), each product rounded before
// its sum.
//
//go:noescape
func f64MomentumSGDAVX2(w, grad, v *float64, n int, lr, mom, wd float64)

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
