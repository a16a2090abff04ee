//go:build amd64

package tensor

// Runtime feature detection for the assembly kernels. The toolchain
// baseline (GOAMD64=v1) cannot assume AVX, so the assembly in
// simd_amd64.s (float32) and simd64_amd64.s (float64, run copy) is only
// dispatched after CPUID confirms AVX2 and FMA and XGETBV confirms the OS
// saves the YMM state. Everything here runs once at package init; the
// kernels read the resulting useASM flag.

// cpuid executes CPUID with the given leaf and subleaf (implemented in
// simd_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (implemented in simd_amd64.s).
func xgetbv() (eax, edx uint32)

// The four float32 kernel primitives, AVX2+FMA implementations.
// n must be > 0 and every pointer must address at least n floats.

//go:noescape
func f32DotAVX2(a, b *float32, n int) float32

//go:noescape
func f32Dot4AVX2(a, b0, b1, b2, b3 *float32, n int) (r0, r1, r2, r3 float32)

//go:noescape
func f32AxpyAVX2(dst, x *float32, alpha float32, n int)

//go:noescape
func f32Axpy4AVX2(dst, x0, x1, x2, x3 *float32, a0, a1, a2, a3 float32, n int)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
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
