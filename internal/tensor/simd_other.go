//go:build !amd64

package tensor

// Non-amd64 builds never set useASM, so these stubs are unreachable;
// they exist only to satisfy the references in kernels.go and
// stream.go.

func f32TransBTileAVX2(rows *[4]*float32, off *int32, panel *float32, k int, out *float32, maskPanel bool) {
	panic("tensor: f32TransBTileAVX2 called without AVX2 support")
}

func f32AxpyAVX2(dst *float32, x *[4]*float32, alpha *[4]float32, terms, n int) {
	panic("tensor: f32AxpyAVX2 called without AVX2 support")
}

func f32ConvAxpyAVX2(dst *float32, x *[4]*float32, alpha *[4]float32, terms int, runs *int32, n, kw int) {
	panic("tensor: f32ConvAxpyAVX2 called without AVX2 support")
}

func f32MomentumSGDAVX2(w, grad, v *float32, n int, lr, mom, wd float32) {
	panic("tensor: f32MomentumSGDAVX2 called without AVX2 support")
}
