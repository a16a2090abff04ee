//go:build !amd64

package tensor

// Non-amd64 builds never set useASM, so these stubs are unreachable;
// they exist only to satisfy the references in kernels.go.

func f32TransBTileAVX2(a, panel *float32, k int, out *float32) {
	panic("tensor: f32TransBTileAVX2 called without AVX2 support")
}

func f32AxpyAVX2(dst, x *float32, alpha float32, n int) {
	panic("tensor: f32AxpyAVX2 called without AVX2 support")
}
