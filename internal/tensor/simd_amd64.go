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

// f32TransBTileAVX2 computes the 4×8 tile out[r*8+c] = Σ_p
// rows[r][off[p]] · panel[p*8+c] over p ascending, skipping (as an exact
// masked add of +0) every term whose broadcast value is ±0 — or, when
// maskPanel is set, every term whose panel value is. Each row base
// addresses every element its offsets reach, off holds k offsets, panel k
// rows of 8, out 32 floats; k must be > 0.
//
//go:noescape
func f32TransBTileAVX2(rows *[4]*float32, off *int32, panel *float32, k int, out *float32, maskPanel bool)

// f32AxpyAVX2 accumulates dst[i] += alpha[t]*x[t][i] for t = 0 … terms−1
// (1–4) in turn over n > 0 elements, each product rounded before its sum.
//
//go:noescape
func f32AxpyAVX2(dst *float32, x *[4]*float32, alpha *[4]float32, terms, n int)

// f32ConvAxpyAVX2 is f64ConvAxpyAVX2 at eight lanes.
//
//go:noescape
func f32ConvAxpyAVX2(dst *float32, x *[4]*float32, alpha *[4]float32, terms int, runs *int32, n, kw int)

// f32MomentumSGDAVX2 is f64MomentumSGDAVX2 at eight lanes: n > 0 is a
// multiple of 8.
//
//go:noescape
func f32MomentumSGDAVX2(w, grad, v *float32, n int, lr, mom, wd float32)

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
