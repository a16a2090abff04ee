package tensor

import (
	"fmt"
	"math"
	"testing"

	"fedclust/internal/rng"
)

func randSlice32(r *rng.Rng, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(r.NormFloat64())
	}
	return s
}

func relErr32(got, want float64) float64 {
	scale := math.Abs(want)
	if scale < 1 {
		scale = 1
	}
	return math.Abs(got-want) / scale
}

// matmul32Ref computes the reference product in float64 from float32
// operands for closeness checks.
func matmul32Ref(a, b *Tensor32, transA, transB bool) [][]float64 {
	var m, n, k int
	get := func(t *Tensor32, trans bool, i, p int) float64 {
		if trans {
			return float64(t.Data[p*t.Shape[1]+i])
		}
		return float64(t.Data[i*t.Shape[1]+p])
	}
	if transA {
		k, m = a.Shape[0], a.Shape[1]
	} else {
		m, k = a.Shape[0], a.Shape[1]
	}
	if transB {
		n = b.Shape[0]
	} else {
		n = b.Shape[1]
	}
	out := make([][]float64, m)
	for i := range out {
		out[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				av := get(a, transA, i, p)
				var bv float64
				if transB {
					bv = float64(b.Data[j*b.Shape[1]+p])
				} else {
					bv = float64(b.Data[p*b.Shape[1]+j])
				}
				s += av * bv
			}
			out[i][j] = s
		}
	}
	return out
}

func checkClose32(t *testing.T, name string, got *Tensor32, want [][]float64, k int) {
	t.Helper()
	// Float32 accumulation error grows with the summation length.
	tol := 1e-4 * math.Sqrt(float64(k))
	n := got.Shape[1]
	for i := range want {
		for j := range want[i] {
			if relErr32(float64(got.Data[i*n+j]), want[i][j]) > tol {
				t.Fatalf("%s [%d,%d]: got %g want %g", name, i, j, got.Data[i*n+j], want[i][j])
			}
		}
	}
}

// TestMatMul32Variants checks all three float32 matmul variants against
// a float64 reference across shapes that exercise the 4-wide blocking
// and its remainders, on both kernel paths.
func TestMatMul32Variants(t *testing.T) {
	paths := []bool{false}
	if UseASM() {
		paths = append(paths, true)
	}
	for _, useASM := range paths {
		t.Run(fmt.Sprintf("asm=%v", useASM), func(t *testing.T) {
			old := SetUseASM(useASM)
			defer SetUseASM(old)
			r := rng.New(11)
			shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {3, 5, 7}, {4, 4, 4}, {5, 9, 6}, {8, 8, 8}, {7, 13, 11}, {16, 10, 20}}
			for _, s := range shapes {
				m, k, n := s[0], s[1], s[2]
				a := FromSlice32(randSlice32(r, m*k), m, k)
				b := FromSlice32(randSlice32(r, k*n), k, n)
				dst := New32(m, n)
				MatMulInto(dst, a, b)
				checkClose32(t, fmt.Sprintf("MatMul32 %v", s), dst, matmul32Ref(a, b, false, false), k)

				bt := FromSlice32(randSlice32(r, n*k), n, k)
				MatMulTransBInto(dst, a, bt)
				checkClose32(t, fmt.Sprintf("MatMulTransB32 %v", s), dst, matmul32Ref(a, bt, false, true), k)

				at := FromSlice32(randSlice32(r, k*m), k, m)
				MatMulTransAInto(dst, at, b)
				checkClose32(t, fmt.Sprintf("MatMulTransA32 %v", s), dst, matmul32Ref(at, b, true, false), k)
			}
		})
	}
}

// TestIm2Col32MatchesFloat64 checks the float32 im2col/col2im against
// the float64 forms bit-exactly (both are pure copies/sums of values
// that round-trip float32 exactly when sums stay small).
func TestIm2Col32MatchesFloat64(t *testing.T) {
	r := rng.New(17)
	g := ConvGeom{InC: 2, InH: 6, InW: 5, KH: 3, KW: 3, Stride: 2, Pad: 1}
	imgN := g.InC * g.InH * g.InW
	rowLen := g.InC * g.KH * g.KW
	colN := g.OutH() * g.OutW() * rowLen

	img32 := randSlice32(r, imgN)
	img64 := make([]float64, imgN)
	for i, v := range img32 {
		img64[i] = float64(v)
	}
	dst32 := make([]float32, colN)
	dst64 := make([]float64, colN)
	Im2ColInto(img32, g, dst32)
	Im2ColInto(img64, g, dst64)
	for i := range dst32 {
		if float64(dst32[i]) != dst64[i] {
			t.Fatalf("Im2Col32 mismatch at %d: %g vs %g", i, dst32[i], dst64[i])
		}
	}

	grad32 := randSlice32(r, colN)
	grad64 := make([]float64, colN)
	for i, v := range grad32 {
		grad64[i] = float64(v)
	}
	out32 := make([]float32, imgN)
	out64 := make([]float64, imgN)
	Col2ImInto(grad32, g, out32)
	Col2ImInto(grad64, g, out64)
	for i := range out32 {
		if relErr32(float64(out32[i]), out64[i]) > 1e-5 {
			t.Fatalf("Col2Im32 mismatch at %d: %g vs %g", i, out32[i], out64[i])
		}
	}
}

// TestTensor32Basics covers the Tensor32 helpers.
func TestTensor32Basics(t *testing.T) {
	a := New32(2, 3)
	if a.Size() != 6 || len(a.Shape) != 2 || a.Shape[1] != 3 {
		t.Fatalf("New32 metadata wrong: %v", a)
	}
	copy(a.Data, []float32{2, 2, 2, 2, 2, 2})
	b := FromSlice32([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if b.At(1, 2) != 6 || a.At(1, 2) != 2 {
		t.Fatalf("FromSlice32/At: %v %v", b, a)
	}
	c := a.Clone()
	c.Zero()
	if a.Data[0] != 2 {
		t.Fatal("Clone shares storage")
	}
	row := b.Row(1)
	if len(row) != 3 || row[0] != 4 {
		t.Fatalf("Row wrong: %v", row)
	}
	r := FromSlice32(b.Data, 3, 2)
	if &r.Data[0] != &b.Data[0] || r.Shape[0] != 3 {
		t.Fatal("a reshaped header must share storage with new shape")
	}
	if !a.SameShape(b) || a.SameShape(r) {
		t.Fatal("SameShape wrong")
	}
}

func benchMat32(b *testing.B, m, k, n int) (*Tensor32, *Tensor32, *Tensor32) {
	r := rng.New(3)
	a := FromSlice32(randSlice32(r, m*k), m, k)
	bb := FromSlice32(randSlice32(r, k*n), k, n)
	return New32(m, n), a, bb
}

func BenchmarkMatMul32(b *testing.B) {
	dst, x, y := benchMat32(b, 64, 128, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

func BenchmarkMatMul64Ref(b *testing.B) {
	r := rng.New(3)
	m, k, n := 64, 128, 64
	a := New(m, k)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	bb := New(k, n)
	for i := range bb.Data {
		bb.Data[i] = r.NormFloat64()
	}
	dst := New(m, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, bb)
	}
}

func BenchmarkMatMulTransB32(b *testing.B) {
	r := rng.New(3)
	m, k, n := 64, 128, 64
	a := FromSlice32(randSlice32(r, m*k), m, k)
	bt := FromSlice32(randSlice32(r, n*k), n, k)
	dst := New32(m, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(dst, a, bt)
	}
}

func BenchmarkMatMulTransB64(b *testing.B) {
	r := rng.New(3)
	m, k, n := 64, 128, 64
	a := New(m, k)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	bt := New(n, k)
	for i := range bt.Data {
		bt.Data[i] = r.NormFloat64()
	}
	dst := New(m, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(dst, a, bt)
	}
}
