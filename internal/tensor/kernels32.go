package tensor

// Float32 kernel primitives. The four primitives below (dot, 4-wide dot,
// axpy, 4-wide axpy) are all the float32 matmul variants are built from;
// each has a hand-written AVX2+FMA implementation (simd_amd64.s) selected
// once at init when the host supports it, and a pure-Go fallback whose
// inner loops are written so the compiler eliminates every bounds check
// (re-slice b to len(a) up front; CI's check_bce gate enforces it).
//
// Summation contract: unlike the float64 kernels there is no skip-zero
// rule — float32 rows are dense and the SIMD lanes would break on it.
// Each primitive sums in a fixed order that depends only on the length n
// (multi-accumulator chains included), so for a given host path the
// result of every kernel is a pure function of its operands: parallel
// and serial runs are bit-identical, whatever the worker count. The asm
// and generic paths may round differently from each other; one path is
// chosen per process at init, which keeps any single run deterministic.

// dot32 returns Σ a[i]*b[i] over len(a) elements (len(b) ≥ len(a)).
func dot32(a, b []float32) float32 {
	if useASM && len(a) > 0 {
		return f32DotAVX2(&a[0], &b[0], len(a))
	}
	return f32DotGeneric(a, b)
}

// dot432 computes four dot products of a against b0..b3, sharing the
// a-row loads — the j-blocked inner kernel of the transposed-B matmul.
func dot432(a, b0, b1, b2, b3 []float32) (r0, r1, r2, r3 float32) {
	if useASM && len(a) > 0 {
		return f32Dot4AVX2(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], len(a))
	}
	return f32Dot4Generic(a, b0, b1, b2, b3)
}

// axpy32 accumulates dst[i] += alpha*x[i] over len(dst) elements.
func axpy32(dst, x []float32, alpha float32) {
	if useASM && len(dst) > 0 {
		f32AxpyAVX2(&dst[0], &x[0], alpha, len(dst))
		return
	}
	f32AxpyGeneric(dst, x, alpha)
}

// axpy432 accumulates dst[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i],
// the 4-wide k-blocked inner kernel of the row-major and transposed-A
// matmuls (one dst pass instead of four).
func axpy432(dst, x0, x1, x2, x3 []float32, a0, a1, a2, a3 float32) {
	if useASM && len(dst) > 0 {
		f32Axpy4AVX2(&dst[0], &x0[0], &x1[0], &x2[0], &x3[0], a0, a1, a2, a3, len(dst))
		return
	}
	f32Axpy4Generic(dst, x0, x1, x2, x3, a0, a1, a2, a3)
}

// f32DotGeneric is the pure-Go dot: four accumulator chains for ILP,
// advancing both slice headers each iteration so every index in the
// unrolled body is provably in bounds — the loop compiles with zero
// bounds checks (the tail re-slice is the one per-call check).
func f32DotGeneric(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	for len(a) >= 4 && len(b) >= 4 {
		s0 += float32(a[0] * b[0])
		s1 += float32(a[1] * b[1])
		s2 += float32(a[2] * b[2])
		s3 += float32(a[3] * b[3])
		a = a[4:]
		b = b[4:]
	}
	s := (s0 + s1) + (s2 + s3)
	b = b[:len(a)]
	for i, av := range a {
		s += float32(av * b[i])
	}
	return s
}

// f32Dot4Generic is the pure-Go 4-wide dot.
func f32Dot4Generic(a, b0, b1, b2, b3 []float32) (r0, r1, r2, r3 float32) {
	b0 = b0[:len(a)]
	b1 = b1[:len(a)]
	b2 = b2[:len(a)]
	b3 = b3[:len(a)]
	for i, av := range a {
		r0 += float32(av * b0[i])
		r1 += float32(av * b1[i])
		r2 += float32(av * b2[i])
		r3 += float32(av * b3[i])
	}
	return
}

// f32AxpyGeneric is the pure-Go axpy.
func f32AxpyGeneric(dst, x []float32, alpha float32) {
	x = x[:len(dst)]
	for i, v := range x {
		dst[i] += float32(alpha * v)
	}
}

// f32Axpy4Generic is the pure-Go 4-wide axpy.
func f32Axpy4Generic(dst, x0, x1, x2, x3 []float32, a0, a1, a2, a3 float32) {
	x0 = x0[:len(dst)]
	x1 = x1[:len(dst)]
	x2 = x2[:len(dst)]
	x3 = x3[:len(dst)]
	for i := range dst {
		dst[i] += float32(a0*x0[i]) + float32(a1*x1[i]) + float32(a2*x2[i]) + float32(a3*x3[i])
	}
}
