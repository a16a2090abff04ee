package tensor

import (
	"math"
	"testing"
	"unsafe"

	"fedclust/internal/rng"
)

// The float64 assembly is held to the Go bodies with == on bits: the
// same product run with the gate off (the Go body, the specification) and
// on must agree in every element, NaN compared as NaN-ness (which of two
// NaN operands an x86 add returns is the one thing operand order shows).

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// edgeFloats draws n operands that reach every case of the skip-zero
// rule and of IEEE addition the kernels could get wrong: +0 and −0
// multiplicands, values whose pairwise products are denormal (1e-160
// scale), ordinary values, and — when nonFinite — a sparse sprinkling of
// ±Inf and NaN.
func edgeFloats(r *rng.Rng, n int, nonFinite bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch c := r.Intn(16); {
		case c < 2:
			v[i] = 0
		case c == 2:
			v[i] = math.Copysign(0, -1)
		case c < 5:
			v[i] = 1e-160 * r.NormFloat64()
		case c == 5 && nonFinite && r.Intn(4) == 0:
			v[i] = [...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[r.Intn(3)]
		default:
			v[i] = r.NormFloat64()
		}
	}
	return v
}

// into64 is the public float64 entry point of each variant.
var into64 = [...]func(dst, a, b *Tensor){plain: MatMulInto[float64], transB: MatMulTransBInto[float64], transA: MatMulTransAInto[float64]}

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
func checkAsmMatchesGo(t *testing.T, r *rng.Rng, v variant, a, b *Tensor, m, n int) {
	t.Helper()
	into := into64[v]
	want, got := New(m, n), New(m, n)
	old := SetUseASM(false)
	into(want, a, b)
	SetUseASM(true)
	defer SetUseASM(old)
	into(got, a, b)
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("a %v b %v: dst[%d,%d] = %x, Go body %x", a.Shape, b.Shape, i/n, i%n,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
	lo := r.Intn(m)
	hi := lo + 1 + r.Intn(m-lo)
	const untouched = 12345.678
	for i := range got.Data {
		got.Data[i] = untouched
	}
	kernels64[v](got, a, b, lo, hi)
	for i := range want.Data {
		w := want.Data[i]
		if row := i / n; row < lo || row >= hi {
			w = untouched
		}
		if !sameBits(got.Data[i], w) {
			t.Fatalf("a %v b %v rows [%d,%d): dst[%d,%d] = %x, want %x", a.Shape, b.Shape, lo, hi, i/n, i%n,
				math.Float64bits(got.Data[i]), math.Float64bits(w))
		}
	}
}

// testAsmMatchesGo sweeps variant v over 3,000 shapes: every m in 1–23
// (so m mod 4 ≠ 0 and blocks shorter than a group occur) and n in 1–19
// (every column remainder, rows below and above axpyMinN), k in 1–90,
// alternately finite-only and with non-finite operands — then k either
// side of the panel bound, and the masked-skip case.
func testAsmMatchesGo(t *testing.T, v variant) {
	if !UseASM() {
		t.Skip("no AVX2+FMA kernel path on this host")
	}
	r := rng.New(23 + uint64(v))
	run := func(m, k, n int, nonFinite bool) {
		as, bs := operandShapes(v, m, k, n)
		a := FromSlice(edgeFloats(r, as[0]*as[1], nonFinite), as[0], as[1])
		b := FromSlice(edgeFloats(r, bs[0]*bs[1], nonFinite), bs[0], bs[1])
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
	}

	// The masked-skip proof: every a value is ±0, every b value is
	// non-finite. The Go body skips each term; the tile multiplies
	// (0·Inf = NaN), masks the product to +0 and adds it. Both must
	// leave +0 in every output, bit for bit.
	const m, k, n = 8, 11, 5
	as, bs := operandShapes(v, m, k, n)
	a, b := New(as[0], as[1]), New(bs[0], bs[1])
	for i := range a.Data {
		if i%2 == 1 {
			a.Data[i] = math.Copysign(0, -1)
		}
	}
	for i := range b.Data {
		b.Data[i] = [...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[i%3]
	}
	checkAsmMatchesGo(t, r, v, a, b, m, n)
	got := New(m, n)
	into64[v](got, a, b)
	for i, x := range got.Data {
		if math.Float64bits(x) != 0 {
			t.Fatalf("zero a against non-finite b: dst[%d] = %x, want +0", i, math.Float64bits(x))
		}
	}
}

func TestMatMulTransBAsmMatchesGoBody(t *testing.T) { testAsmMatchesGo(t, transB) }
func TestMatMulTransAAsmMatchesGoBody(t *testing.T) { testAsmMatchesGo(t, transA) }
func TestMatMulAsmMatchesGoBody(t *testing.T)       { testAsmMatchesGo(t, plain) }

// TestAsmParallelMatchesSerial: above parallelThreshold with two workers
// the executor cuts m = 101 rows into blocks of 51 and 50 — neither a
// multiple of four — and every variant must still equal the serial Go
// body (k below the panel bound, so the tile path is the one split).
func TestAsmParallelMatchesSerial(t *testing.T) {
	if !UseASM() {
		t.Skip("no AVX2+FMA kernel path on this host")
	}
	r := rng.New(29)
	const m, k, n = 101, 200, 19
	if m*k*n < parallelThreshold {
		t.Fatal("shape below parallelThreshold")
	}
	for v, into := range into64 {
		as, bs := operandShapes(variant(v), m, k, n)
		a := FromSlice(edgeFloats(r, as[0]*as[1], false), as[0], as[1])
		b := FromSlice(edgeFloats(r, bs[0]*bs[1], false), bs[0], bs[1])
		want, got := New(m, n), New(m, n)
		old := SetUseASM(false)
		kernels64[v](want, a, b, 0, m)
		SetUseASM(true)
		withProcs(2, func() { into(got, a, b) })
		SetUseASM(old)
		for i := range want.Data {
			if !sameBits(got.Data[i], want.Data[i]) {
				t.Fatalf("variant %d: dst[%d] = %x, serial Go body %x", v, i,
					math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
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
		t.Skip("no AVX2+FMA kernel path on this host")
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
