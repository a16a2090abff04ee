//go:build amd64

package tensor

// Runtime feature detection for the assembly kernels. The toolchain
// baseline (GOAMD64=v1) cannot assume AVX, so the assembly in
// simd_amd64.s (float32) and simd64_amd64.s (float64, run copy) is only
// dispatched after CPUID confirms AVX2 and XGETBV confirms the OS saves
// the YMM state. No kernel uses FMA. Everything here runs once at package
// init; the kernels read the resulting useASM flag.

// cpuid executes CPUID with the given leaf and subleaf (implemented in
// simd_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (implemented in simd_amd64.s).
func xgetbv() (eax, edx uint32)

// f32TransBTileAVX2 computes the 4×8 tile out[r*8+c] = Σ_p a[r*k+p] ·
// panel[p*8+c] over p ascending, skipping (as an exact masked add of +0)
// every p whose a value is ±0. a addresses 4 rows of k floats, panel k
// rows of 8, out 32 floats; k must be > 0.
//
//go:noescape
func f32TransBTileAVX2(a, panel *float32, k int, out *float32)

// f32AxpyAVX2 accumulates dst[i] += alpha*x[i] over n > 0 elements, the
// product rounded before the sum.
//
//go:noescape
func f32AxpyAVX2(dst, x *float32, alpha float32, n int)

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
