package tensor

import (
	"fmt"
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

// variant names a matmul form.
type variant int

const (
	plain variant = iota
	transB
	transAAdd
)

// variantRows runs rows [lo, hi) of variant v through its row kernel.
func variantRows[T Float](v variant, dst, a, b *Of[T], lo, hi int) {
	switch v {
	case plain:
		matmulRows(dst, a, b, lo, hi)
	case transB:
		matmulTransBRows(dst, a, b, lo, hi)
	case transAAdd:
		matmulTransAAddRows(dst, a, b, lo, hi)
	}
}

// into runs variant v through its public entry point.
func into[T Float](v variant, dst, a, b *Of[T]) {
	switch v {
	case plain:
		MatMulInto(dst, a, b)
	case transB:
		MatMulTransBInto(dst, a, b)
	case transAAdd:
		MatMulTransAAddInto(dst, a, b)
	}
}

// operandShapes returns the (rows, cols) of a and b for dst (m×n) with
// inner dimension k under variant v.
func operandShapes(v variant, m, k, n int) (a, b [2]int) {
	switch v {
	case transB:
		return [2]int{m, k}, [2]int{n, k}
	case transAAdd:
		return [2]int{k, m}, [2]int{k, n}
	}
	return [2]int{m, k}, [2]int{k, n}
}

// checkAsmMatchesGo runs variant v on (a, b) with the gate off, then
// with it on — once through the public entry point and once as a row
// block [lo,hi) that cuts the 4-row groups anywhere — and requires the
// same bits, and rows outside the block untouched. Every product starts
// from a zeroed dst (transAAdd's block from zeroed rows).
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
	if v == transAAdd {
		clear(got.Data[lo*n : hi*n])
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
// (so m mod 4 ≠ 0 and blocks shorter than a group occur; for transB
// blocks both shorter than n, which pack a, and not, which pack b) and n
// in 1–19 (every column remainder of both tile widths, rows below and
// above axpyMinN), k in 1–90 (for the axpy every count of terms left
// over from a group of four), alternately finite-only and with
// non-finite operands — then k either side of the panel bound, and the
// masked-skip cases.
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
	// leave +0 in every output, bit for bit — with a as the broadcast
	// rows (m ≥ n) and as the packed panel (m < n).
	for _, s := range [][3]int{{8, 11, 13}, {13, 11, 8}, {5, 3, 30}} {
		m, k, n := s[0], s[1], s[2]
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
				t.Fatalf("%v: zero a against non-finite b: dst[%d] = %x, want +0", s, i, bitsOf(x))
			}
		}
	}

	// One non-finite b value per group of four b-rows, never in the
	// group's first row, against an a that is ±0 at every third value,
	// so some of them meet a skipped term: when a is the panel, only the
	// sums of the broadcast row holding it go non-finite, and a
	// first-pass test of one row would miss it and keep 0·Inf = NaN
	// where the Go body skips.
	for _, s := range [][3]int{{6, 9, 21}, {9, 17, 24}, {3, 5, 7}} {
		m, k, n := s[0], s[1], s[2]
		as, bs := operandShapes(v, m, k, n)
		a := FromSlice(edgeValues[T](r, as[0]*as[1], false), as[0], as[1])
		b := FromSlice(edgeValues[T](r, bs[0]*bs[1], false), bs[0], bs[1])
		for i := range a.Data {
			if i%3 == 0 {
				a.Data[i] = 0
			}
		}
		for g := 0; g < n; g += 4 {
			row, p := min(g+1+r.Intn(3), n-1), r.Intn(k)
			bv := T([...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[r.Intn(3)])
			if v == transB {
				b.Data[row*k+p] = bv
			} else {
				b.Data[p*n+row] = bv
			}
		}
		checkAsmMatchesGo(t, r, v, a, b, m, n)
	}
}

func TestMatMulTransBAsmMatchesGoBody(t *testing.T) {
	inBothDTypes(t, func(t *testing.T) { testAsmMatchesGo[float64](t, transB) },
		func(t *testing.T) { testAsmMatchesGo[float32](t, transB) })
}

func TestMatMulTransAAsmMatchesGoBody(t *testing.T) {
	inBothDTypes(t, func(t *testing.T) { testAsmMatchesGo[float64](t, transAAdd) },
		func(t *testing.T) { testAsmMatchesGo[float32](t, transAAdd) })
}

func TestMatMulAsmMatchesGoBody(t *testing.T) {
	inBothDTypes(t, func(t *testing.T) { testAsmMatchesGo[float64](t, plain) },
		func(t *testing.T) { testAsmMatchesGo[float32](t, plain) })
}

// TestAxpyAsmMatchesGoBody: the assembly axpy over 1–4 terms equals that
// many axpy loops run one after another, bit for bit, in both dtypes, at
// every length through two main-loop iterations, the half step and the
// scalar tail (every n mod 16), on edge operands and scales.
func TestAxpyAsmMatchesGoBody(t *testing.T) {
	inBothDTypes(t, testAxpyAsmMatchesGoBody[float64], testAxpyAsmMatchesGoBody[float32])
}

func testAxpyAsmMatchesGoBody[T Float](t *testing.T) {
	if !UseASM() {
		t.Skip("no AVX2 kernel path on this host")
	}
	r := rng.New(31)
	for n := 1; n <= 40; n++ {
		for terms := 1; terms <= 4; terms++ {
			for trial := 0; trial < 4; trial++ {
				var x [4]*T
				var av [4]T
				var rows [4][]T
				for u := 0; u < terms; u++ {
					rows[u] = edgeValues[T](r, n, true)
					x[u], av[u] = &rows[u][0], edgeValues[T](r, 1, true)[0]
				}
				want := edgeValues[T](r, n, true)
				got := append([]T(nil), want...)
				for u := 0; u < terms; u++ {
					for i, v := range rows[u] {
						want[i] += T(av[u] * v)
					}
				}
				axpyAVX2(&got[0], &x, &av, terms, n)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("n %d terms %d: dst[%d] = %x, loops %x", n, terms, i, bitsOf(got[i]), bitsOf(want[i]))
					}
				}
			}
		}
	}
}

// TestConvAxpyAsmMatchesGoBody: the weight gradient's assembly axpy
// (convAxpy, four pixels' runs read in place through the run offsets)
// equals its Go body convAxpyGo bit for bit, in both dtypes, at every run
// length KW 1–9 (every width class of both dtypes' steps, KW below the
// float32 lanes included), 1, 2, 5, 15 and 30 runs (LeNet's two
// convolutions have 15 and 30), 1–4 terms, on edge operands and scales
// (±0 and non-finite coefficients and taps); and it writes nothing past
// its last run.
func TestConvAxpyAsmMatchesGoBody(t *testing.T) {
	inBothDTypes(t, testConvAxpyAsmMatchesGoBody[float64], testConvAxpyAsmMatchesGoBody[float32])
}

func testConvAxpyAsmMatchesGoBody[T Float](t *testing.T) {
	if !UseASM() {
		t.Skip("no AVX2 kernel path on this host")
	}
	r := rng.New(52)
	const guard = 12345.678
	for kw := 1; kw <= 9; kw++ {
		for _, n := range []int{1, 2, 5, 15, 30} {
			for terms := 1; terms <= 4; terms++ {
				img := edgeValues[T](r, 200, true)
				runs := make([]int32, n)
				for i := range runs {
					runs[i] = int32(r.Intn(100))
				}
				var at [4]int
				var av [4]T
				for u := range at {
					at[u], av[u] = r.Intn(100-kw), edgeValues[T](r, 1, true)[0]
				}
				want := append(edgeValues[T](r, n*kw, true), guard)
				got := append([]T(nil), want...)
				convAxpyGo(want[:n*kw], img, &at, &av, terms, runs, kw)
				convAxpy(got[:n*kw], img, &at, &av, terms, runs, kw)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("kw %d runs %d terms %d: dst[%d] = %x, Go body %x", kw, n, terms, i, bitsOf(got[i]), bitsOf(want[i]))
					}
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

// offsetGeoms are the convolutions the offset form is held to the Go body
// over: Pad at and beyond KW, strides 1–3, kernels wider than the image,
// one input channel and several, 1×1 taps and LeNet-5's two layers.
var offsetGeoms = []ConvGeom{
	{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 3, Pad: 3},
	{InC: 1, InH: 5, InW: 7, KH: 2, KW: 6, Stride: 2, Pad: 6},
	{InC: 2, InH: 3, InW: 2, KH: 5, KW: 5, Stride: 1, Pad: 2},
	{InC: 2, InH: 6, InW: 5, KH: 3, KW: 3, Stride: 2, Pad: 1},
	{InC: 2, InH: 9, InW: 7, KH: 2, KW: 4, Stride: 3, Pad: 0},
	{InC: 4, InH: 3, InW: 3, KH: 1, KW: 1, Stride: 1, Pad: 0},
	{InC: 3, InH: 16, InW: 16, KH: 5, KW: 5, Stride: 1, Pad: 2},
	{InC: 3, InH: 8, InW: 8, KH: 5, KW: 5, Stride: 1, Pad: 0},
}

// TestTransBOffsetAsmMatchesGoBody: the tile's offset form — four pixels'
// top-left taps in the padded batch as row bases, the geometry's tap
// offsets, the tile stored channel-major with the bias — equals the Go
// offset body, bit for bit, in both dtypes: over every offsetGeoms
// geometry, channel counts with every remainder of both tile widths, runs
// of four-pixel groups starting at any pixel (mid output row, mid image),
// alternately finite-only and with non-finite operands; and a run leaves
// every pixel outside it untouched.
func TestTransBOffsetAsmMatchesGoBody(t *testing.T) {
	inBothDTypes(t, testTransBOffsetAsmMatchesGoBody[float64], testTransBOffsetAsmMatchesGoBody[float32])
}

func testTransBOffsetAsmMatchesGoBody[T Float](t *testing.T) {
	if !UseASM() {
		t.Skip("no AVX2 kernel path on this host")
	}
	r := rng.New(45)
	for gi, g := range offsetGeoms {
		for _, n := range []int{1, 3, 4, 5, 8, 9, 13} {
			for _, batch := range []int{1, 2, 3} {
				nonFinite := (gi+n+batch)%2 == 1
				x := edgeValues[T](r, batch*g.InC*g.InH*g.InW, nonFinite)
				w := FromSlice(edgeValues[T](r, n*g.InC*g.KH*g.KW, nonFinite), n, g.InC*g.KH*g.KW)
				bias := edgeValues[T](r, n, nonFinite)
				checkOffsetForm(t, r, fmt.Sprintf("%+v n %d batch %d", g, n, batch), g, x, w, bias)
			}
		}
	}

	// The masked-skip proof in the offset form: every image value is ±0,
	// so every tap and the padding around it is skipped, against
	// non-finite weights, with a +0 bias. Every output must be +0.
	for _, g := range offsetGeoms[:4] {
		x := make([]T, 2*g.InC*g.InH*g.InW)
		for i := range x {
			if i%2 == 1 {
				x[i] = T(math.Copysign(0, -1))
			}
		}
		n := 6
		w := NewOf[T](n, g.InC*g.KH*g.KW)
		for i := range w.Data {
			w.Data[i] = T([...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[i%3])
		}
		bias := make([]T, n)
		got := checkOffsetForm(t, r, fmt.Sprintf("%+v, zero image against non-finite W", g), g, x, w, bias)
		for i, v := range got {
			if bitsOf(v) != 0 {
				t.Fatalf("%+v: zero image against non-finite W: out[%d] = %x, want +0", g, i, bitsOf(v))
			}
		}
	}
}

// checkOffsetForm convolves the batch x with w and bias through the Go
// offset body, then requires, on bits: ConvInto with the gate on gives
// the same output, and convTiles over a run of whole four-pixel groups
// from a random pixel writes exactly those pixels' outputs. It returns
// the Go body's output.
func checkOffsetForm[T Float](t *testing.T, r *rng.Rng, name string, g ConvGeom, x []T, w *Of[T], bias []T) []T {
	t.Helper()
	n, outHW := w.Shape[0], g.OutH()*g.OutW()
	padded := make([]T, len(x)/(g.InC*g.InH*g.InW)*g.PaddedLen())
	PadInto(x, g, padded)
	pixels := len(padded) / g.PaddedLen() * outHW
	off := tapOffsets(nil, g)
	want := make([]T, pixels*n)
	convRowsGo(want, padded, w.Data, bias, off, g, 0, pixels)
	same := func(what string, got []T, outside T, lo, hi int) {
		t.Helper()
		for i, v := range got {
			wv := want[i]
			if pix := i/(n*outHW)*outHW + i%outHW; pix < lo || pix >= hi {
				wv = outside
			}
			if !sameBits(v, wv) {
				t.Fatalf("%s, %s: out[%d] (pixel %d, channel %d) = %x, Go body %x",
					name, what, i, i/(n*outHW)*outHW+i%outHW, i/outHW%n, bitsOf(v), bitsOf(wv))
			}
		}
	}
	var p TransBPanel[T]
	p.Pack(w)
	got := make([]T, len(want))
	p.ConvInto(got, padded, g, bias)
	same("ConvInto", got, 0, 0, pixels)
	if pixels < 4 {
		return want
	}
	lo := r.Intn(pixels - 3)
	hi := lo + 4*(1+r.Intn((pixels-lo)/4))
	const untouched = 12345.678
	for i := range got {
		got[i] = untouched
	}
	convTiles(got, padded, p.panel, bias, p.off, g, lo, hi)
	same(fmt.Sprintf("tiles over pixels [%d,%d)", lo, hi), got, untouched, lo, hi)
	return want
}
