//go:build !amd64

package tensor

import "unsafe"

// Non-amd64 builds never set useASM, so these stubs are unreachable;
// they exist only to satisfy the references in kernels.go and
// im2col.go.

func f64TransBTileAVX2(a, panel *float64, k int, out *float64) {
	panic("tensor: f64TransBTileAVX2 called without AVX2 support")
}

func f64AxpyAVX2(dst, x *float64, alpha float64, n int) {
	panic("tensor: f64AxpyAVX2 called without AVX2 support")
}

func copyRunsAVX2(dst, src unsafe.Pointer, runBytes, n, dstStride, srcStride int) {
	panic("tensor: copyRunsAVX2 called without AVX2 support")
}
