//go:build !amd64

package tensor

// Non-amd64 builds never set useASM, so these stubs are unreachable;
// they exist only to satisfy the references in kernels32.go.

func f32DotAVX2(a, b *float32, n int) float32 {
	panic("tensor: f32DotAVX2 called without AVX2 support")
}

func f32Dot4AVX2(a, b0, b1, b2, b3 *float32, n int) (r0, r1, r2, r3 float32) {
	panic("tensor: f32Dot4AVX2 called without AVX2 support")
}

func f32AxpyAVX2(dst, x *float32, alpha float32, n int) {
	panic("tensor: f32AxpyAVX2 called without AVX2 support")
}

func f32Axpy4AVX2(dst, x0, x1, x2, x3 *float32, a0, a1, a2, a3 float32, n int) {
	panic("tensor: f32Axpy4AVX2 called without AVX2 support")
}
