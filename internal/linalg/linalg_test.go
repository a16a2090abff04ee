package linalg

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"fedclust/internal/rng"
	"fedclust/internal/sched"
	"fedclust/internal/tensor"
)

// matMul is the allocating form of tensor.MatMulInto.
func matMul(a, b *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(a.Shape[0], b.Shape[1])
	tensor.MatMulInto(out, a, b)
	return out
}

// scale multiplies every element of t by s in place.
func scale(t *tensor.Tensor, s float64) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// reconstruct returns U · diag(S) · Vᵀ, the matrix d factors.
func reconstruct(d SVD) *tensor.Tensor {
	us := d.U.Clone()
	for i := 0; i < us.Shape[0]; i++ {
		for j, sv := range d.S {
			us.Set(us.At(i, j)*sv, i, j)
		}
	}
	return matMul(us, tensor.Transpose(d.V))
}

// matVec returns a(m×k) · x(k) as a length-m vector.
func matVec(a, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(a.Shape[0])
	for i := range out.Data {
		for j, v := range a.Row(i) {
			out.Data[i] += v * x.Data[j]
		}
	}
	return out
}

// Column extracts column j of a rank-2 tensor as a fresh vector tensor.
func Column(a *tensor.Tensor, j int) *tensor.Tensor {
	m := a.Shape[0]
	out := tensor.New(m)
	for i := 0; i < m; i++ {
		out.Data[i] = a.At(i, j)
	}
	return out
}

// near reports whether a and b have the same shape and elementwise
// absolute difference at most tol.
func near(a, b *tensor.Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func randMatrix(r *rng.Rng, m, n int) *tensor.Tensor {
	t := tensor.New(m, n)
	for i := range t.Data {
		t.Data[i] = r.NormFloat64()
	}
	return t
}

func randSymmetric(r *rng.Rng, n int) *tensor.Tensor {
	a := randMatrix(r, n, n)
	at := tensor.Transpose(a)
	s := a.Clone()
	for i, v := range at.Data {
		s.Data[i] += v
	}
	scale(s, 0.5)
	return s
}

func TestSymEigDiagonal(t *testing.T) {
	a := tensor.New(3, 3)
	a.Set(3, 0, 0)
	a.Set(1, 1, 1)
	a.Set(2, 2, 2)
	vals, _ := SymEig(a)
	want := []float64{3, 2, 1}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-10 {
			t.Fatalf("eigenvalues = %v, want %v", vals, want)
		}
	}
}

func TestSymEigKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := tensor.FromSlice([]float64{2, 1, 1, 2}, 2, 2)
	vals, v := SymEig(a)
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues = %v", vals)
	}
	// Eigenvector for 3 is (1,1)/sqrt2 up to sign.
	e0 := Column(v, 0)
	if math.Abs(math.Abs(e0.Data[0])-math.Sqrt2/2) > 1e-9 ||
		math.Abs(e0.Data[0]-e0.Data[1]) > 1e-9 {
		t.Fatalf("top eigenvector = %v", e0.Data)
	}
}

func TestSymEigReconstruction(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 5, 12} {
		a := randSymmetric(r, n)
		vals, v := SymEig(a)
		// A·v_j == λ_j·v_j for every eigenpair.
		for j := 0; j < n; j++ {
			ej := Column(v, j)
			av := matVec(a, ej)
			scale(ej, vals[j])
			if !near(av, ej, 1e-8*(1+math.Abs(vals[j]))) {
				t.Fatalf("n=%d eigenpair %d fails A·v = λ·v", n, j)
			}
		}
		// Eigenvectors orthonormal: VᵀV = I.
		vtv := matMul(tensor.Transpose(v), v)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(vtv.At(i, j)-want) > 1e-9 {
					t.Fatalf("n=%d VᵀV not identity at (%d,%d): %v", n, i, j, vtv.At(i, j))
				}
			}
		}
	}
}

func TestSymEigTraceProperty(t *testing.T) {
	// Sum of eigenvalues == trace (property over random seeds).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(8)
		a := randSymmetric(r, n)
		vals, _ := SymEig(a)
		var sum, tr float64
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
			sum += vals[i]
		}
		return math.Abs(sum-tr) < 1e-8*(1+math.Abs(tr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDReconstruction(t *testing.T) {
	r := rng.New(2)
	for _, dims := range [][2]int{{1, 1}, {3, 3}, {5, 3}, {3, 5}, {10, 4}, {4, 10}} {
		a := randMatrix(r, dims[0], dims[1])
		d := ComputeSVD(a)
		if !near(reconstruct(d), a, 1e-8) {
			t.Fatalf("SVD reconstruction failed for %v", dims)
		}
	}
}

func TestSVDSingularValuesSortedNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, n := 1+r.Intn(10), 1+r.Intn(10)
		d := ComputeSVD(randMatrix(r, m, n))
		for i, s := range d.S {
			if s < 0 {
				return false
			}
			if i > 0 && d.S[i-1] < s-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDOrthonormalFactors(t *testing.T) {
	r := rng.New(3)
	a := randMatrix(r, 8, 5)
	d := ComputeSVD(a)
	utu := matMul(tensor.Transpose(d.U), d.U)
	vtv := matMul(tensor.Transpose(d.V), d.V)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(utu.At(i, j)-want) > 1e-9 || math.Abs(vtv.At(i, j)-want) > 1e-9 {
				t.Fatal("SVD factors not orthonormal")
			}
		}
	}
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := tensor.FromSlice([]float64{3, 0, 0, -2}, 2, 2)
	d := ComputeSVD(a)
	if math.Abs(d.S[0]-3) > 1e-10 || math.Abs(d.S[1]-2) > 1e-10 {
		t.Fatalf("singular values = %v, want [3 2]", d.S)
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: second singular value ~0, reconstruction exact.
	a := tensor.FromSlice([]float64{1, 2, 2, 4, 3, 6}, 3, 2)
	d := ComputeSVD(a)
	if d.S[1] > 1e-10 {
		t.Fatalf("rank-1 matrix second singular value = %v", d.S[1])
	}
	if !near(reconstruct(d), a, 1e-9) {
		t.Fatal("rank-deficient reconstruction failed")
	}
}

func TestTruncateU(t *testing.T) {
	r := rng.New(4)
	a := randMatrix(r, 6, 4)
	d := ComputeSVD(a)
	u2 := d.TruncateU(2)
	if u2.Shape[0] != 6 || u2.Shape[1] != 2 {
		t.Fatalf("TruncateU shape = %v", u2.Shape)
	}
	for j := 0; j < 2; j++ {
		for i := 0; i < 6; i++ {
			if u2.At(i, j) != d.U.At(i, j) {
				t.Fatal("TruncateU did not copy leading columns")
			}
		}
	}
}

func TestPrincipalAnglesIdenticalSubspaces(t *testing.T) {
	r := rng.New(6)
	u := ComputeSVD(randMatrix(r, 8, 3)).TruncateU(3)
	angles := PrincipalAngles(u, u)
	for _, a := range angles {
		if a > 1e-6 {
			t.Fatalf("identical subspaces should have zero angles, got %v", angles)
		}
	}
	if d := SubspaceDistance(u, u); d > 1e-4 {
		t.Fatalf("SubspaceDistance(u,u) = %v", d)
	}
}

func TestPrincipalAnglesOrthogonalSubspaces(t *testing.T) {
	// span(e0,e1) vs span(e2,e3) in R^4: both angles are π/2.
	u1 := tensor.New(4, 2)
	u1.Set(1, 0, 0)
	u1.Set(1, 1, 1)
	u2 := tensor.New(4, 2)
	u2.Set(1, 2, 0)
	u2.Set(1, 3, 1)
	angles := PrincipalAngles(u1, u2)
	for _, a := range angles {
		if math.Abs(a-math.Pi/2) > 1e-9 {
			t.Fatalf("orthogonal subspaces angles = %v", angles)
		}
	}
	if d := SubspaceDistance(u1, u2); math.Abs(d-180) > 1e-6 {
		t.Fatalf("SubspaceDistance orthogonal = %v, want 180", d)
	}
}

func TestPrincipalAnglesPartialOverlap(t *testing.T) {
	// span(e0,e1) vs span(e0,e2): one zero angle, one right angle.
	u1 := tensor.New(3, 2)
	u1.Set(1, 0, 0)
	u1.Set(1, 1, 1)
	u2 := tensor.New(3, 2)
	u2.Set(1, 0, 0)
	u2.Set(1, 2, 1)
	angles := PrincipalAngles(u1, u2)
	if math.Abs(angles[0]) > 1e-9 || math.Abs(angles[1]-math.Pi/2) > 1e-9 {
		t.Fatalf("partial overlap angles = %v", angles)
	}
}

func TestVecDistanceEuclidean(t *testing.T) {
	if d := VecDistance(Euclidean, []float64{0, 0}, []float64{3, 4}); d != 5 {
		t.Fatalf("euclidean = %v", d)
	}
}

func TestVecDistanceCosine(t *testing.T) {
	if d := VecDistance(Cosine, []float64{1, 0}, []float64{2, 0}); math.Abs(d) > 1e-12 {
		t.Fatalf("cosine parallel = %v", d)
	}
	if d := VecDistance(Cosine, []float64{1, 0}, []float64{0, 1}); math.Abs(d-1) > 1e-12 {
		t.Fatalf("cosine orthogonal = %v", d)
	}
	if d := VecDistance(Cosine, []float64{1, 0}, []float64{-1, 0}); math.Abs(d-2) > 1e-12 {
		t.Fatalf("cosine opposite = %v", d)
	}
	if d := VecDistance(Cosine, []float64{0, 0}, []float64{1, 0}); d != 1 {
		t.Fatalf("cosine with zero vector = %v", d)
	}
}

func TestVecDistanceManhattan(t *testing.T) {
	if d := VecDistance(Manhattan, []float64{1, -1}, []float64{-1, 1}); d != 4 {
		t.Fatalf("manhattan = %v", d)
	}
}

func TestMetricString(t *testing.T) {
	if Euclidean.String() != "euclidean" || Cosine.String() != "cosine" || Manhattan.String() != "manhattan" {
		t.Fatal("Metric.String wrong")
	}
}

func TestPairwiseDistancesProperties(t *testing.T) {
	r := rng.New(7)
	// The second shape is past the size where rows are shared out to
	// parallel workers.
	for _, shape := range [][2]int{{12, 40}, {96, 16}} {
		n, dim := shape[0], shape[1]
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = make([]float64, dim)
			for j := range vecs[i] {
				vecs[i][j] = r.NormFloat64()
			}
		}
		for _, m := range []Metric{Euclidean, Cosine, Manhattan} {
			d := PairwiseDistances(m, vecs)
			for i := 0; i < n; i++ {
				if d.At(i, i) != 0 {
					t.Fatalf("%v n=%d: diagonal must be zero", m, n)
				}
				for j := i + 1; j < n; j++ {
					want := VecDistance(m, vecs[i], vecs[j])
					if d.At(i, j) != want || d.At(j, i) != want {
						t.Fatalf("%v n=%d: d[%d][%d]=%v, d[%d][%d]=%v, direct distance %v",
							m, n, i, j, d.At(i, j), j, i, d.At(j, i), want)
					}
				}
			}
		}
	}
}

func TestPairwiseDistancesEmptyAndSingle(t *testing.T) {
	d := PairwiseDistances(Euclidean, nil)
	if d.Size() != 0 {
		t.Fatal("empty input should give empty matrix")
	}
	d1 := PairwiseDistances(Euclidean, [][]float64{{1, 2}})
	if d1.Shape[0] != 1 || d1.At(0, 0) != 0 {
		t.Fatal("single vector matrix wrong")
	}
}

func TestPairwiseFromFunc(t *testing.T) {
	n := 9
	d := PairwiseFromFunc(n, func(i, j int) float64 { return float64(i + j) })
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := float64(i + j)
			if i == j {
				want = 0
			}
			if d.At(i, j) != want {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, d.At(i, j), want)
			}
		}
	}
}

// TestPairwiseNestedRunsSerially: called from inside a region of the
// shared executor — a client task, say — both builders start no region of
// their own, walk the pairs in serial row order, and give the same bits
// as a top-level call.
func TestPairwiseNestedRunsSerially(t *testing.T) {
	r := rng.New(11)
	vecs := make([][]float64, 96)
	for i := range vecs {
		vecs[i] = make([]float64, 16)
		for j := range vecs[i] {
			vecs[i][j] = r.NormFloat64()
		}
	}
	n := len(vecs)
	f := func(i, j int) float64 { return VecDistance(Cosine, vecs[i], vecs[j]) }
	top, topF := PairwiseDistances(Euclidean, vecs), PairwiseFromFunc(n, f)

	pool := sched.Default()
	var nested, nestedF *tensor.Tensor
	var before, after sched.Stats
	var order [][2]int
	pool.Run(2, 2, func(_, item int) {
		if item != 0 {
			return
		}
		before = pool.Stats()
		nested = PairwiseDistances(Euclidean, vecs)
		nestedF = PairwiseFromFunc(n, func(i, j int) float64 {
			order = append(order, [2]int{i, j})
			return f(i, j)
		})
		after = pool.Stats()
	})
	if after.Regions != before.Regions || after.Serial != before.Serial+2 {
		t.Errorf("nested builders: %d regions and %d serial submissions, want 0 and 2",
			after.Regions-before.Regions, after.Serial-before.Serial)
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if k >= len(order) || order[k] != [2]int{i, j} {
				t.Fatalf("nested PairwiseFromFunc call %d is not pair (%d,%d): serial row order broken", k, i, j)
			}
			k++
		}
	}
	for _, c := range []struct {
		name      string
		got, want *tensor.Tensor
	}{{"PairwiseDistances", nested, top}, {"PairwiseFromFunc", nestedF, topF}} {
		for i := range c.want.Data {
			if math.Float64bits(c.got.Data[i]) != math.Float64bits(c.want.Data[i]) {
				t.Fatalf("%s: nested cell %d = %v, top-level %v", c.name, i, c.got.Data[i], c.want.Data[i])
			}
		}
	}
}

func TestColumn(t *testing.T) {
	a := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	c := Column(a, 1)
	if c.Data[0] != 2 || c.Data[1] != 5 {
		t.Fatalf("Column = %v", c.Data)
	}
}

func BenchmarkSVD32x16(b *testing.B) {
	r := rng.New(1)
	a := randMatrix(r, 32, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ComputeSVD(a)
	}
}

func BenchmarkSymEig24(b *testing.B) {
	r := rng.New(1)
	a := randSymmetric(r, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = SymEig(a)
	}
}

// BenchmarkPairwiseDistances: the Euclidean proximity matrix at 50
// vectors of 850 and at many-clients-cluster's formation shape, 512
// features of 200.
func BenchmarkPairwiseDistances(b *testing.B) {
	for _, shape := range [][2]int{{50, 850}, {512, 200}} {
		n, dim := shape[0], shape[1]
		b.Run(fmt.Sprintf("%dx%d", n, dim), func(b *testing.B) {
			r := rng.New(1)
			vecs := make([][]float64, n)
			for i := range vecs {
				vecs[i] = make([]float64, dim)
				for j := range vecs[i] {
					vecs[i][j] = r.NormFloat64()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = PairwiseDistances(Euclidean, vecs)
			}
		})
	}
}
