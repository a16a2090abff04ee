package tensor

import (
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
	// Big enough that m*n*k crosses parallelThreshold in both kernels.
	r := rng.New(5)
	a := randTensor(r, 80, 70)
	b := randTensor(r, 60, 70)
	got := New(80, 60)
	MatMulTransBInto(got, a, b)
	want := MatMul(a, Transpose(b))
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatal("parallel MatMulTransB not bit-exact")
		}
	}
	at := randTensor(r, 70, 80)
	bt := randTensor(r, 70, 60)
	got2 := New(80, 60)
	MatMulTransAInto(got2, at, bt)
	want2 := MatMul(Transpose(at), bt)
	for i := range got2.Data {
		if got2.Data[i] != want2.Data[i] {
			t.Fatal("parallel MatMulTransA not bit-exact")
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
