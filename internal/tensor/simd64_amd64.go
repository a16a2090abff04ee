//go:build amd64

package tensor

import "unsafe"

// The float64 kernel primitives and the run copy, AVX2 implementations
// (simd64_amd64.s), dispatched behind the same useASM gate as the float32
// pair. Both pairs multiply and add as two instructions, never FMA, and a
// vector lane is always one output element: every sum keeps the order
// and the roundings of the Go body it stands in for.

// f64TransBTileAVX2 computes the 4×4 tile out[r*4+c] = Σ_p a[r*k+p] ·
// panel[p*4+c] over p ascending, skipping (as an exact masked add of +0)
// every p whose a value is ±0. a addresses 4 rows of k floats, panel k
// rows of 4, out 16 floats; k must be > 0.
//
//go:noescape
func f64TransBTileAVX2(a, panel *float64, k int, out *float64)

// f64AxpyAVX2 accumulates dst[i] += alpha*x[i] over n > 0 elements, the
// product rounded before the sum.
//
//go:noescape
func f64AxpyAVX2(dst, x *float64, alpha float64, n int)

// copyRunsAVX2 copies n runs of runBytes ≥ 4 bytes each: run i from
// src + i*srcStride to dst + i*dstStride (strides in bytes). It reads
// and writes nothing outside the runs; n must be > 0.
//
//go:noescape
func copyRunsAVX2(dst, src unsafe.Pointer, runBytes, n, dstStride, srcStride int)
