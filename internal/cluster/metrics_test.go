package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"fedclust/internal/rng"
)

func TestARIIdenticalPartitions(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2}
	if ARI(a, a) != 1 {
		t.Fatalf("ARI(a,a) = %v", ARI(a, a))
	}
	// Label permutation must not matter.
	b := []int{5, 5, 3, 3, 9, 9}
	if ARI(a, b) != 1 {
		t.Fatalf("ARI under relabeling = %v", ARI(a, b))
	}
}

func TestARIIndependentPartitionsNearZero(t *testing.T) {
	r := rng.New(1)
	n := 2000
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = r.Intn(4)
		b[i] = r.Intn(4)
	}
	if v := ARI(a, b); math.Abs(v) > 0.02 {
		t.Fatalf("ARI of independent labelings = %v, want ~0", v)
	}
}

func TestARIPartialAgreement(t *testing.T) {
	a := []int{0, 0, 0, 1, 1, 1}
	b := []int{0, 0, 1, 1, 1, 1}
	v := ARI(a, b)
	if v <= 0 || v >= 1 {
		t.Fatalf("partial agreement ARI = %v, want in (0,1)", v)
	}
}

func TestARISymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(30)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = r.Intn(3)
			b[i] = r.Intn(4)
		}
		return math.Abs(ARI(a, b)-ARI(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestARITrivialPartitions(t *testing.T) {
	all0 := []int{0, 0, 0, 0}
	if ARI(all0, all0) != 1 {
		t.Fatal("single-cluster vs itself should be 1")
	}
	singletons := []int{0, 1, 2, 3}
	if ARI(singletons, singletons) != 1 {
		t.Fatal("all-singletons vs itself should be 1")
	}
}

func TestARILengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	ARI([]int{0}, []int{0, 1})
}

func TestNumClusters(t *testing.T) {
	if NumClusters([]int{3, 3, 7, 1}) != 3 {
		t.Fatal("NumClusters wrong")
	}
	if NumClusters(nil) != 0 {
		t.Fatal("NumClusters(nil) should be 0")
	}
}
