package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"fedclust/internal/rng"
)

func TestNewZeroFilled(t *testing.T) {
	a := New(2, 3, 4)
	if a.Size() != 24 || len(a.Shape) != 3 || a.Shape[1] != 3 {
		t.Fatalf("bad metadata: size=%d rank=%d", a.Size(), len(a.Shape))
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
}

func TestFromSliceAndPanic(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if a.At(1, 2) != 6 || a.At(0, 0) != 1 {
		t.Fatal("FromSlice layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float64{1, 2}, 3)
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(3, 4, 5)
	a.Set(7.5, 2, 1, 3)
	if a.At(2, 1, 3) != 7.5 {
		t.Fatal("At/Set round trip failed")
	}
	// row-major: offset = (2*4+1)*5+3 = 48
	if a.Data[48] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestIndexBounds(t *testing.T) {
	a := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, 2}, {-1, 0}, {0, -1}} {
		func(idx []int) {
			defer func() {
				if recover() == nil {
					t.Fatalf("index %v did not panic", idx)
				}
			}()
			a.At(idx...)
		}(idx)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice(a.Data, 3, 2)
	b.Set(42, 0, 1)
	if a.At(0, 1) != 42 {
		t.Fatal("a reshaped header should share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape did not panic")
		}
	}()
	FromSlice(a.Data, 4, 2)
}

func TestRow(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	r := a.Row(1)
	if len(r) != 3 || r[0] != 4 || r[2] != 6 {
		t.Fatalf("Row(1) = %v", r)
	}
	r[0] = 10
	if a.At(1, 0) != 10 {
		t.Fatal("Row should be a view")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	c := a.Clone()
	c.AddScaled(b, -1)
	if c.Data[0] != -3 {
		t.Fatalf("AddScaled = %v", c.Data)
	}
}

func TestOpsShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddScaled with mismatched shapes did not panic")
		}
	}()
	New(2).AddScaled(New(3), 1)
}

func TestApplySumNorm(t *testing.T) {
	a := FromSlice([]float64{-3, 4}, 2)
	if a.Norm() != 5 {
		t.Fatalf("Norm = %v", a.Norm())
	}
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", a.MaxAbs())
	}
}

func TestEqualAndFillZero(t *testing.T) {
	a := FromSlice([]float64{3, 3, 3, 3}, 2, 2)
	b := FromSlice([]float64{3.0000001, 3.0000001, 3.0000001, 3.0000001}, 2, 2)
	if !Equal(a, b, 1e-5) {
		t.Fatal("Equal within tol failed")
	}
	if Equal(a, b, 1e-9) {
		t.Fatal("Equal beyond tol should fail")
	}
	if Equal(a, New(4), 1) {
		t.Fatal("Equal with different shapes should fail")
	}
	a.Zero()
	if !Equal(a, New(2, 2), 0) {
		t.Fatal("Zero failed")
	}
}

// naiveMatMul is the reference implementation for property testing.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func randTensor(r *rng.Rng, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = r.NormFloat64()
	}
	return t
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !Equal(got, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := rng.New(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 1, 7}, {17, 13, 11}, {64, 32, 48}} {
		a := randTensor(r, dims[0], dims[1])
		b := randTensor(r, dims[1], dims[2])
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !Equal(got, want, 1e-9) {
			t.Fatalf("MatMul mismatch for dims %v", dims)
		}
	}
}

func TestMatMulParallelPathMatchesNaive(t *testing.T) {
	// Big enough to cross parallelThreshold.
	r := rng.New(2)
	a := randTensor(r, 80, 70)
	b := randTensor(r, 70, 60)
	if !Equal(MatMul(a, b), naiveMatMul(a, b), 1e-8) {
		t.Fatal("parallel MatMul mismatch")
	}
}

func TestMatMulProperty(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		return Equal(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with bad inner dims did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if at.Shape[0] != 3 || at.Shape[1] != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose = %v %v", at.Shape, at.Data)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is the identity layout.
	g := ConvGeom{InC: 2, InH: 3, InW: 3, KH: 1, KW: 1, Stride: 1, Pad: 0}
	img := make([]float64, 18)
	for i := range img {
		img[i] = float64(i)
	}
	cols := New(9, 2)
	Im2ColInto(img, g, cols.Data)
	// Row p should be [img[p], img[9+p]] for output pixel p.
	for p := 0; p < 9; p++ {
		if cols.At(p, 0) != float64(p) || cols.At(p, 1) != float64(9+p) {
			t.Fatalf("row %d = %v", p, cols.Row(p))
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	img := []float64{1, 2, 3, 4}
	cols := New(g.OutH()*g.OutW(), 9)
	Im2ColInto(img, g, cols.Data)
	// Output (0,0): receptive field top-left; the first row/col are padding.
	row := cols.Row(0)
	want := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for i, v := range want {
		if row[i] != v {
			t.Fatalf("padded im2col row0 = %v, want %v", row, want)
		}
	}
}

func TestConvGeomOutDims(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, KH: 5, KW: 5, Stride: 1, Pad: 0}
	if g.OutH() != 28 || g.OutW() != 28 {
		t.Fatalf("OutH/OutW = %d/%d", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 1, InH: 28, InW: 28, KH: 3, KW: 3, Stride: 2, Pad: 1}
	if g2.OutH() != 14 || g2.OutW() != 14 {
		t.Fatalf("strided OutH/OutW = %d/%d", g2.OutH(), g2.OutW())
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> for all x, y — the defining property
	// of an adjoint, which is exactly what backprop requires.
	r := rng.New(3)
	g := ConvGeom{InC: 2, InH: 5, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	x := make([]float64, g.InC*g.InH*g.InW)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	rows, colsN := g.OutH()*g.OutW(), g.InC*g.KH*g.KW
	y := randTensor(r, rows, colsN)

	cols := New(rows, colsN)
	Im2ColInto(x, g, cols.Data)
	var lhs float64
	for i, v := range cols.Data {
		lhs += v * y.Data[i]
	}

	back := make([]float64, len(x))
	Col2ImInto(y.Data, g, back)
	var rhs float64
	for i := range x {
		rhs += x[i] * back[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint property violated: %v vs %v", lhs, rhs)
	}
}

func TestConvGeomValidatePanics(t *testing.T) {
	bad := []ConvGeom{
		{InC: 0, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1},
		{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 0},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1, Pad: 0},
	}
	for i, g := range bad {
		func(g ConvGeom) {
			defer func() {
				if recover() == nil {
					t.Fatalf("geometry %d did not panic: %+v", i, g)
				}
			}()
			g.Validate()
		}(g)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := rng.New(1)
	x := randTensor(r, 64, 64)
	y := randTensor(r, 64, 64)
	out := New(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	r := rng.New(1)
	x := randTensor(r, 256, 256)
	y := randTensor(r, 256, 256)
	out := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, KH: 5, KW: 5, Stride: 1, Pad: 0}
	img := make([]float64, g.InC*g.InH*g.InW)
	cols := New(g.OutH()*g.OutW(), g.InC*g.KH*g.KW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2ColInto(img, g, cols.Data)
	}
}
