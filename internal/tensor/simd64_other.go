//go:build !amd64

package tensor

import "unsafe"

// Non-amd64 builds never set useASM, so these stubs are unreachable;
// they exist only to satisfy the references in kernels.go,
// distance.go, stream.go and im2col.go.

func f64TransBTileAVX2(rows *[4]*float64, off *int32, panel *float64, k int, out *float64, maskPanel bool) {
	panic("tensor: f64TransBTileAVX2 called without AVX2 support")
}

func f64EuclideanTileAVX2(a *[4]*float64, panel *float64, k int, out *[16]float64) {
	panic("tensor: f64EuclideanTileAVX2 called without AVX2 support")
}

func f64AxpyAVX2(dst *float64, x *[4]*float64, alpha *[4]float64, terms, n int) {
	panic("tensor: f64AxpyAVX2 called without AVX2 support")
}

func f64ConvAxpyAVX2(dst *float64, x *[4]*float64, alpha *[4]float64, terms int, runs *int32, n, kw int) {
	panic("tensor: f64ConvAxpyAVX2 called without AVX2 support")
}

func f64MomentumSGDAVX2(w, grad, v *float64, n int, lr, mom, wd float64) {
	panic("tensor: f64MomentumSGDAVX2 called without AVX2 support")
}

func f64ToF32AVX2(dst *float32, src *float64, n int) {
	panic("tensor: f64ToF32AVX2 called without AVX2 support")
}

func f32ToF64AVX2(dst *float64, src *float32, n int) {
	panic("tensor: f32ToF64AVX2 called without AVX2 support")
}

func copyRunsAVX2(dst, src unsafe.Pointer, runBytes, n, dstStride, srcStride int) {
	panic("tensor: copyRunsAVX2 called without AVX2 support")
}
