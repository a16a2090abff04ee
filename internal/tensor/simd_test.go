package tensor

import (
	"math"
	"testing"
	"unsafe"

	"fedclust/internal/rng"
)

// The assembly of both element types is held to the generic Go bodies
// with == on bits: the same product run with the gate off (the Go body,
// the specification) and on must agree in every element, NaN compared as
// NaN-ness (which of two NaN operands an x86 add returns is the one thing
// operand order shows).

func sameBits[T Float](a, b T) bool {
	return bitsOf(a) == bitsOf(b) || (a != a && b != b)
}

// edgeValues draws n operands of T that reach every case of the
// skip-zero rule and of IEEE arithmetic the kernels could get wrong: +0
// and −0 multiplicands, values whose pairwise products are subnormal in
// T, ordinary values, and — when nonFinite — a sparse sprinkling of ±Inf
// and NaN. In float32 also subnormal operands, and a few values large
// enough that the product of two of them overflows ±MaxFloat32.
func edgeValues[T Float](r *rng.Rng, n int, nonFinite bool) []T {
	_, f32 := any(T(0)).(float32)
	tiny := 1e-160
	if f32 {
		tiny = 1e-20
	}
	v := make([]T, n)
	for i := range v {
		switch c := r.Intn(16); {
		case c < 2:
			v[i] = 0
		case c == 2:
			v[i] = T(math.Copysign(0, -1))
		case c < 5:
			v[i] = T(tiny * r.NormFloat64())
		case c == 5 && nonFinite && r.Intn(4) == 0:
			v[i] = T([...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[r.Intn(3)])
		case c == 6 && f32:
			v[i] = T(1e-40 * r.NormFloat64())
		case c == 7 && f32 && r.Intn(4) == 0:
			v[i] = T(1e20 * r.NormFloat64())
		default:
			v[i] = T(r.NormFloat64())
		}
	}
	return v
}

// into runs variant v through its public entry point.
func into[T Float](v variant, dst, a, b *Of[T]) {
	switch v {
	case plain:
		MatMulInto(dst, a, b)
	case transB:
		MatMulTransBInto(dst, a, b)
	case transA:
		MatMulTransAInto(dst, a, b)
	}
}

// operandShapes returns the (rows, cols) of a and b for dst (m×n) with
// inner dimension k under variant v.
func operandShapes(v variant, m, k, n int) (a, b [2]int) {
	switch v {
	case transB:
		return [2]int{m, k}, [2]int{n, k}
	case transA:
		return [2]int{k, m}, [2]int{k, n}
	}
	return [2]int{m, k}, [2]int{k, n}
}

// checkAsmMatchesGo runs variant v on (a, b) with the gate off, then
// with it on — once through the public entry point and once as a row
// block [lo,hi) that cuts the 4-row groups anywhere — and requires the
// same bits, and rows outside the block untouched.
func checkAsmMatchesGo[T Float](t *testing.T, r *rng.Rng, v variant, a, b *Of[T], m, n int) {
	t.Helper()
	want, got := NewOf[T](m, n), NewOf[T](m, n)
	old := SetUseASM(false)
	into(v, want, a, b)
	SetUseASM(true)
	defer SetUseASM(old)
	into(v, got, a, b)
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("a %v b %v: dst[%d,%d] = %x, Go body %x", a.Shape, b.Shape, i/n, i%n,
				bitsOf(got.Data[i]), bitsOf(want.Data[i]))
		}
	}
	lo := r.Intn(m)
	hi := lo + 1 + r.Intn(m-lo)
	const untouched = 12345.678
	for i := range got.Data {
		got.Data[i] = untouched
	}
	variantRows(v, got, a, b, lo, hi)
	for i := range want.Data {
		w := want.Data[i]
		if row := i / n; row < lo || row >= hi {
			w = untouched
		}
		if !sameBits(got.Data[i], w) {
			t.Fatalf("a %v b %v rows [%d,%d): dst[%d,%d] = %x, want %x", a.Shape, b.Shape, lo, hi, i/n, i%n,
				bitsOf(got.Data[i]), bitsOf(w))
		}
	}
}

// inBothDTypes runs f once per element type, as subtests.
func inBothDTypes(t *testing.T, f64, f32 func(t *testing.T)) {
	t.Run("float64", f64)
	t.Run("float32", f32)
}

// testAsmMatchesGo sweeps variant v over 3,000 shapes: every m in 1–23
// (so m mod 4 ≠ 0 and blocks shorter than a group occur) and n in 1–19
// (every column remainder of both tile widths, rows below and above
// axpyMinN), k in 1–90, alternately finite-only and with non-finite
// operands — then k either side of the panel bound, and the masked-skip
// case.
func testAsmMatchesGo[T Float](t *testing.T, v variant) {
	if !UseASM() {
		t.Skip("no AVX2 kernel path on this host")
	}
	r := rng.New(23 + uint64(v))
	run := func(m, k, n int, nonFinite bool) {
		as, bs := operandShapes(v, m, k, n)
		a := FromSlice(edgeValues[T](r, as[0]*as[1], nonFinite), as[0], as[1])
		b := FromSlice(edgeValues[T](r, bs[0]*bs[1], nonFinite), bs[0], bs[1])
		checkAsmMatchesGo(t, r, v, a, b, m, n)
	}
	shapes := 3000
	if testing.Short() {
		shapes = 600
	}
	for s := 0; s < shapes; s++ {
		run(1+s%23, 1+r.Intn(90), 1+(s/23)%19, s%2 == 1)
	}
	for _, k := range []int{transBPanelK - 1, transBPanelK, transBPanelK + 1} {
		run(9, k, 7, false)
		run(6, k, 3, true)
		run(5, k, 11, true)
	}

	// The masked-skip proof: every a value is ±0, every b value is
	// non-finite. The Go body skips each term; the tile multiplies
	// (0·Inf = NaN), masks the product to +0 and adds it. Both must
	// leave +0 in every output, bit for bit.
	const m, k, n = 8, 11, 13
	as, bs := operandShapes(v, m, k, n)
	a, b := NewOf[T](as[0], as[1]), NewOf[T](bs[0], bs[1])
	for i := range a.Data {
		if i%2 == 1 {
			a.Data[i] = T(math.Copysign(0, -1))
		}
	}
	for i := range b.Data {
		b.Data[i] = T([...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[i%3])
	}
	checkAsmMatchesGo(t, r, v, a, b, m, n)
	got := NewOf[T](m, n)
	into(v, got, a, b)
	for i, x := range got.Data {
		if bitsOf(x) != 0 {
			t.Fatalf("zero a against non-finite b: dst[%d] = %x, want +0", i, bitsOf(x))
		}
	}
}

func TestMatMulTransBAsmMatchesGoBody(t *testing.T) {
	inBothDTypes(t, func(t *testing.T) { testAsmMatchesGo[float64](t, transB) },
		func(t *testing.T) { testAsmMatchesGo[float32](t, transB) })
}

func TestMatMulTransAAsmMatchesGoBody(t *testing.T) {
	inBothDTypes(t, func(t *testing.T) { testAsmMatchesGo[float64](t, transA) },
		func(t *testing.T) { testAsmMatchesGo[float32](t, transA) })
}

func TestMatMulAsmMatchesGoBody(t *testing.T) {
	inBothDTypes(t, func(t *testing.T) { testAsmMatchesGo[float64](t, plain) },
		func(t *testing.T) { testAsmMatchesGo[float32](t, plain) })
}

// TestAsmParallelMatchesSerial: above both parallel thresholds with two
// workers the executor cuts m = 101 rows into blocks of 51 and 50 —
// neither a multiple of four — and every variant must still equal the
// serial Go body (k below the panel bound, so the tile path is the one
// split).
func TestAsmParallelMatchesSerial(t *testing.T) {
	inBothDTypes(t, testAsmParallelMatchesSerial[float64], testAsmParallelMatchesSerial[float32])
}

func testAsmParallelMatchesSerial[T Float](t *testing.T) {
	if !UseASM() {
		t.Skip("no AVX2 kernel path on this host")
	}
	r := rng.New(29)
	const m, k, n = 101, 200, 19
	if m*k*n < max(parallelThreshold, parallelThreshold32) {
		t.Fatal("shape below a parallel threshold")
	}
	for _, v := range []variant{plain, transB, transA} {
		as, bs := operandShapes(v, m, k, n)
		a := FromSlice(edgeValues[T](r, as[0]*as[1], false), as[0], as[1])
		b := FromSlice(edgeValues[T](r, bs[0]*bs[1], false), bs[0], bs[1])
		want, got := NewOf[T](m, n), NewOf[T](m, n)
		old := SetUseASM(false)
		variantRows(v, want, a, b, 0, m)
		SetUseASM(true)
		withProcs(2, func() { into(v, got, a, b) })
		SetUseASM(old)
		for i := range want.Data {
			if !sameBits(got.Data[i], want.Data[i]) {
				t.Fatalf("variant %d: dst[%d] = %x, serial Go body %x", v, i, bitsOf(got.Data[i]), bitsOf(want.Data[i]))
			}
		}
	}
}

// TestAddScaledAsmMatchesGoBody: AddScaled through the assembly axpy
// equals its loop bit for bit, in both dtypes, at every length through
// two vector steps and the scalar tail, on edge operands and scales.
func TestAddScaledAsmMatchesGoBody(t *testing.T) {
	inBothDTypes(t, testAddScaledAsmMatchesGoBody[float64], testAddScaledAsmMatchesGoBody[float32])
}

func testAddScaledAsmMatchesGoBody[T Float](t *testing.T) {
	if !UseASM() {
		t.Skip("no AVX2 kernel path on this host")
	}
	r := rng.New(31)
	for n := 1; n <= 40; n++ {
		for _, s := range edgeValues[T](r, 6, true) {
			o := FromSlice(edgeValues[T](r, n, true), n)
			want := FromSlice(edgeValues[T](r, n, true), n)
			got := want.Clone()
			old := SetUseASM(false)
			want.AddScaled(o, s)
			SetUseASM(true)
			got.AddScaled(o, s)
			SetUseASM(old)
			for i := range want.Data {
				if !sameBits(got.Data[i], want.Data[i]) {
					t.Fatalf("n %d s %v: t[%d] = %x, loop %x", n, s, i, bitsOf(got.Data[i]), bitsOf(want.Data[i]))
				}
			}
		}
	}
}

// TestCopyRunsWritesOnlyItsRuns drives copyRunsAVX2 over every run
// length of every move-width class (4 … 150 bytes, lengths that are not a
// multiple of any element size included), overlapping and disjoint source
// runs, with guard bytes before, between and after the destination runs:
// each run must arrive intact and no guard byte may change.
func TestCopyRunsWritesOnlyItsRuns(t *testing.T) {
	if !UseASM() {
		t.Skip("no AVX2 kernel path on this host")
	}
	const guard = 0xA5
	for runBytes := 4; runBytes <= 150; runBytes++ {
		for _, n := range []int{1, 2, 7} {
			for _, srcStride := range []int{4, 8, runBytes, runBytes + 5} {
				for _, gap := range []int{1, 3, 64} {
					dstStride := runBytes + gap
					src := make([]byte, (n-1)*srcStride+runBytes)
					for i := range src {
						src[i] = byte(i*7 + 1)
						if src[i] == guard {
							src[i]++
						}
					}
					dst := make([]byte, gap+n*dstStride)
					for i := range dst {
						dst[i] = guard
					}
					copyRunsAVX2(unsafe.Pointer(&dst[gap]), unsafe.Pointer(&src[0]), runBytes, n, dstStride, srcStride)
					for i, got := range dst {
						want := byte(guard)
						if off := i - gap; off >= 0 && off%dstStride < runBytes {
							want = src[off/dstStride*srcStride+off%dstStride]
						}
						if got != want {
							t.Fatalf("runBytes %d n %d strides dst %d src %d: dst[%d] = %#x, want %#x",
								runBytes, n, dstStride, srcStride, i, got, want)
						}
					}
				}
			}
		}
	}
}
