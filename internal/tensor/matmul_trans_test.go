package tensor

import (
	"fmt"
	"math"
	"testing"

	"fedclust/internal/rng"
)

// The transposed-operand kernels exist so layers can read W and gy in
// place. Their contract is strict: results must be BIT-identical to the
// materialize-the-transpose forms they replace, because the engine's
// golden equivalence suite pins float-bit fingerprints of whole training
// runs. Hence the == comparisons below, not tolerance checks.

func TestMatMulTransBBitExact(t *testing.T) {
	r := rng.New(3)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 1}, {17, 13, 11}, {64, 48, 32}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randTensor(r, m, k)
		b := randTensor(r, n, k)
		// Sparsify a so the skip-zero rule is exercised.
		for i := 0; i < len(a.Data); i += 3 {
			a.Data[i] = 0
		}
		got := New(m, n)
		MatMulTransBInto(got, a, b)
		want := MatMul(a, Transpose(b))
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("dims %v: element %d = %v, want %v (not bit-exact)", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulTransABitExact(t *testing.T) {
	r := rng.New(4)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 2, 4}, {7, 5, 1}, {13, 17, 11}, {48, 64, 32}} {
		k, m, n := dims[0], dims[1], dims[2]
		a := randTensor(r, k, m)
		b := randTensor(r, k, n)
		for i := 0; i < len(a.Data); i += 3 {
			a.Data[i] = 0
		}
		got := New(m, n)
		MatMulTransAInto(got, a, b)
		want := MatMul(Transpose(a), b)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("dims %v: element %d = %v, want %v (not bit-exact)", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulTransParallelPathBitExact(t *testing.T) {
	// Larger than the shape table above: 336K multiply-adds per product.
	r := rng.New(5)
	a := randTensor(r, 80, 70)
	b := randTensor(r, 60, 70)
	got := New(80, 60)
	MatMulTransBInto(got, a, b)
	want := MatMul(a, Transpose(b))
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatal("large MatMulTransB not bit-exact")
		}
	}
	at := randTensor(r, 70, 80)
	bt := randTensor(r, 70, 60)
	got2 := New(80, 60)
	MatMulTransAInto(got2, at, bt)
	want2 := MatMul(Transpose(at), bt)
	for i := range got2.Data {
		if got2.Data[i] != want2.Data[i] {
			t.Fatal("large MatMulTransA not bit-exact")
		}
	}
}

func TestMatMulTransShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"transB inner":     func() { MatMulTransBInto(New(2, 3), New(2, 4), New(3, 5)) },
		"transB dst":       func() { MatMulTransBInto(New(2, 2), New(2, 4), New(3, 4)) },
		"transA inner":     func() { MatMulTransAInto(New(2, 3), New(4, 2), New(5, 3)) },
		"transA dst":       func() { MatMulTransAInto(New(2, 2), New(4, 2), New(4, 3)) },
		"transB non-rank2": func() { MatMulTransBInto(New(2, 2), New(4), New(2, 4)) },
	} {
		func(name string, f func()) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: mismatched shapes did not panic", name)
				}
			}()
			f()
		}(name, f)
	}
}

func TestIm2ColIntoLengthPanics(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("short dst did not panic")
		}
	}()
	Im2ColInto(make([]float64, 16), g, make([]float64, 3))
}

// edgeOf is a rows×cols matrix of edgeValues, non-finite ones included.
func edgeOf[T Float](r *rng.Rng, rows, cols int) *Of[T] {
	return FromSlice(edgeValues[T](r, rows*cols, true), rows, cols)
}

// sameBitsOf compares got and want on their encodings in their own
// width, NaN payloads and the sign of zero included.
func sameBitsOf[T Float](t *testing.T, what string, got, want *Of[T]) {
	t.Helper()
	for i, w := range want.Data {
		if g := got.Data[i]; bitsOf(g) != bitsOf(w) {
			t.Fatalf("%s: element %d = %v (bits %#x), want %v (bits %#x)", what, i, g, bitsOf(g), w, bitsOf(w))
		}
	}
}

// bitsOf is v's IEEE-754 encoding in its own width.
func bitsOf[T Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// TestTransBPanelMatchesMatMulTransB: W packed once, ConvInto against a
// run of different batches equals MatMulTransBInto on each batch's unroll,
// reordered to channel-major with the bias added, bit for bit, in both
// dtypes on both kernel paths: batches whose pixel count is and is not a
// multiple of four, every channel remainder of both tile widths, k up to
// past the panel bound (InC 11, 5×5: 275 taps).
func TestTransBPanelMatchesMatMulTransB(t *testing.T) {
	t.Run("float64", onBothKernelPaths(testTransBPanelMatchesMatMulTransB[float64]))
	t.Run("float32", onBothKernelPaths(testTransBPanelMatchesMatMulTransB[float32]))
}

func testTransBPanelMatchesMatMulTransB[T Float](t *testing.T) {
	r := rng.New(31)
	var p TransBPanel[T]
	for _, g := range []ConvGeom{
		{InC: 1, InH: 1, InW: 1, KH: 1, KW: 1, Stride: 1},
		{InC: 3, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 7, InW: 6, KH: 5, KW: 4, Stride: 2, Pad: 2},
		{InC: 11, InH: 5, InW: 5, KH: 5, KW: 5, Stride: 1, Pad: 2},
	} {
		k := g.InC * g.KH * g.KW
		for n := 1; n <= 9; n++ {
			w, bias := edgeOf[T](r, n, k), edgeValues[T](r, n, true)
			p.Pack(w)
			for _, batch := range []int{1, 3, 4} {
				x := edgeValues[T](r, batch*g.InC*g.InH*g.InW, true)
				padded := make([]T, batch*g.PaddedLen())
				PadInto(x, g, padded)
				got := make([]T, batch*n*g.OutH()*g.OutW())
				p.ConvInto(got, padded, g, bias)
				want := unrolledConv(x, g, w, bias)
				sameBitsOf(t, fmt.Sprintf("%+v n %d batch %d", g, n, batch), FromSlice(got, len(got)), FromSlice(want, len(want)))
			}
		}
	}
}

// unrolledConv is a batch's convolution through the unroll: each image's
// Im2ColInto rows, one MatMulTransBInto against w, reordered to
// channel-major with the bias added.
func unrolledConv[T Float](x []T, g ConvGeom, w *Of[T], bias []T) []T {
	n, outHW, rowLen, imgLen := w.Shape[0], g.OutH()*g.OutW(), g.InC*g.KH*g.KW, g.InC*g.InH*g.InW
	batch := len(x) / imgLen
	cols := NewOf[T](batch*outHW, rowLen)
	for b := 0; b < batch; b++ {
		Im2ColInto(x[b*imgLen:][:imgLen], g, cols.Data[b*outHW*rowLen:][:outHW*rowLen])
	}
	y := NewOf[T](batch*outHW, n)
	MatMulTransBInto(y, cols, w)
	out := make([]T, batch*n*outHW)
	for i := range out {
		b, ch, pix := i/(n*outHW), i/outHW%n, i%outHW
		out[i] = y.Data[(b*outHW+pix)*n+ch] + bias[ch]
	}
	return out
}

// TestMatMulTransAAddInBlocksMatchesWhole: aᵀ·b cut along k into blocks
// of any length (the last one shorter), added in order into a zeroed dst,
// equals MatMulTransAInto over the whole k, bit for bit, in both dtypes on
// both kernel paths.
func TestMatMulTransAAddInBlocksMatchesWhole(t *testing.T) {
	t.Run("float64", onBothKernelPaths(testMatMulTransAAddInBlocksMatchesWhole[float64]))
	t.Run("float32", onBothKernelPaths(testMatMulTransAAddInBlocksMatchesWhole[float32]))
}

func testMatMulTransAAddInBlocksMatchesWhole[T Float](t *testing.T) {
	r := rng.New(32)
	for _, k := range []int{1, 3, 4, 9, 50, 101} {
		for _, m := range []int{1, 3, 8} {
			for _, n := range []int{1, 7, 8, 75} {
				a, b := edgeOf[T](r, k, m), edgeOf[T](r, k, n)
				want := NewOf[T](m, n)
				MatMulTransAInto(want, a, b)
				for _, blk := range []int{1, 3, 4, 7, 24} {
					got := NewOf[T](m, n)
					for lo := 0; lo < k; lo += blk {
						hi := min(lo+blk, k)
						MatMulTransAAddInto(got, FromSlice(a.Data[lo*m:hi*m], hi-lo, m), FromSlice(b.Data[lo*n:hi*n], hi-lo, n))
					}
					sameBitsOf(t, fmt.Sprintf("k %d m %d n %d in blocks of %d", k, m, n, blk), got, want)
				}
			}
		}
	}
}
