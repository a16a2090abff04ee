package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Derive(1)
	c2 := root.Derive(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("derived streams with different labels collided on first draw")
	}
	// Derive must not disturb the parent stream.
	rootCopy := New(7)
	rootCopy.Derive(1)
	rootCopy.Derive(2)
	fresh := New(7)
	_ = fresh.Derive(99)
	if fresh.Uint64() != rootCopy.Uint64() {
		t.Fatal("Derive perturbed parent stream state")
	}
}

func TestDeriveDeterministic(t *testing.T) {
	a := New(5).Derive(3, 4)
	b := New(5).Derive(3, 4)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("derived streams with equal labels diverged at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(17)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(19)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 0.06*want {
			t.Fatalf("bucket %d count %d deviates from expected %v", k, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(23)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPerm(t *testing.T) {
	r := New(29)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate element %d", v)
		}
		seen[v] = true
	}
}

func TestPermIsPermutationProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGammaMoments(t *testing.T) {
	// Gamma(alpha,1) has mean alpha, variance alpha.
	for _, alpha := range []float64{0.1, 0.5, 1, 2, 5} {
		r := New(31)
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += r.Gamma(alpha)
		}
		mean := sum / n
		if math.Abs(mean-alpha) > 0.05*alpha+0.01 {
			t.Fatalf("Gamma(%v) mean = %v, want ~%v", alpha, mean, alpha)
		}
	}
}

func TestGammaPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gamma(0) did not panic")
		}
	}()
	New(1).Gamma(0)
}

func TestDirichletSumsToOne(t *testing.T) {
	r := New(37)
	for _, alpha := range []float64{0.05, 0.1, 1, 10} {
		for i := 0; i < 100; i++ {
			p := r.Dirichlet(alpha, 10)
			var sum float64
			for _, v := range p {
				if v < 0 {
					t.Fatalf("Dirichlet produced negative mass %v", v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("Dirichlet mass sums to %v, want 1", sum)
			}
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	// Small alpha should concentrate mass; large alpha should spread it.
	r := New(41)
	maxAt := func(alpha float64) float64 {
		var avgMax float64
		const draws = 500
		for i := 0; i < draws; i++ {
			p := r.Dirichlet(alpha, 10)
			m := 0.0
			for _, v := range p {
				if v > m {
					m = v
				}
			}
			avgMax += m
		}
		return avgMax / draws
	}
	small, large := maxAt(0.1), maxAt(100)
	if small < 0.5 {
		t.Fatalf("Dirichlet(0.1) avg max mass = %v, expected concentrated (>0.5)", small)
	}
	if large > 0.2 {
		t.Fatalf("Dirichlet(100) avg max mass = %v, expected spread (<0.2)", large)
	}
}

func TestShuffleStability(t *testing.T) {
	a := []int{1, 2, 3, 4, 5, 6, 7, 8}
	b := append([]int(nil), a...)
	New(99).Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	New(99).Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Shuffle with same seed produced different orders")
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

func BenchmarkDirichlet(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Dirichlet(0.1, 10)
	}
}
