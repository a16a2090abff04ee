package partition

import (
	"fmt"
	"testing"
	"testing/quick"

	"fedclust/internal/rng"
)

// Validate panics unless the assignment is a partition of exactly the
// indices [0, n): disjoint, complete, in-range. Every partitioner test
// holds its output to it.
func (a Assignment) Validate(n int) {
	seen := make([]bool, n)
	count := 0
	for c, idx := range a {
		for _, i := range idx {
			if i < 0 || i >= n {
				panic(fmt.Sprintf("partition: client %d has out-of-range index %d", c, i))
			}
			if seen[i] {
				panic(fmt.Sprintf("partition: index %d assigned twice", i))
			}
			seen[i] = true
			count++
		}
	}
	if count != n {
		panic(fmt.Sprintf("partition: %d of %d indices assigned", count, n))
	}
}

// balancedLabels returns n labels cycling through the given class count.
func balancedLabels(n, classes int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % classes
	}
	return out
}

func TestDirichletIsAPartition(t *testing.T) {
	labels := balancedLabels(500, 10)
	a := Dirichlet(labels, 10, 0.1, 5, rng.New(1))
	a.Validate(len(labels))
	if len(a) != 10 {
		t.Fatalf("clients = %d", len(a))
	}
	for c, idx := range a {
		if len(idx) < 5 {
			t.Fatalf("client %d has %d < 5 examples", c, len(idx))
		}
	}
}

func TestDirichletPartitionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 200 + r.Intn(300)
		clients := 2 + r.Intn(10)
		labels := balancedLabels(n, 1+r.Intn(10))
		a := Dirichlet(labels, clients, 0.1, 1, r)
		defer func() { recover() }() // a Validate panic returns false
		a.Validate(n)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// meanTopShare is the mean, over clients, of the share of a client's
// examples that its most frequent class holds: 1/classes for a perfectly
// even mix, 1 when every client holds a single class.
func meanTopShare(a Assignment, labels []int, classes int) float64 {
	var sum float64
	for _, h := range ClientLabelHistograms(a, labels, classes) {
		top, n := 0, 0
		for _, c := range h {
			n += c
			top = max(top, c)
		}
		sum += float64(top) / float64(n)
	}
	return sum / float64(len(a))
}

func TestDirichletSkewDecreasesWithAlpha(t *testing.T) {
	labels := balancedLabels(2000, 10)
	skewLow := meanTopShare(Dirichlet(labels, 10, 0.05, 1, rng.New(2)), labels, 10)
	skewHigh := meanTopShare(Dirichlet(labels, 10, 100, 1, rng.New(2)), labels, 10)
	if skewHigh > 0.2 {
		t.Fatalf("large-α partition too skewed: top-class share %v", skewHigh)
	}
	if skewLow < 0.5 {
		t.Fatalf("small-α partition not skewed enough: top-class share %v", skewLow)
	}
}

func TestDirichletValidation(t *testing.T) {
	labels := balancedLabels(20, 2)
	for _, f := range []func(){
		func() { Dirichlet(labels, 0, 0.1, 1, rng.New(1)) },
		func() { Dirichlet(labels, 2, 0, 1, rng.New(1)) },
		func() { Dirichlet(labels, 10, 0.1, 5, rng.New(1)) }, // 50 > 20
	} {
		func(f func()) {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid Dirichlet config did not panic")
				}
			}()
			f()
		}(f)
	}
}

func TestDirichletDeterministic(t *testing.T) {
	labels := balancedLabels(300, 10)
	a := Dirichlet(labels, 5, 0.1, 1, rng.New(9))
	b := Dirichlet(labels, 5, 0.1, 1, rng.New(9))
	for c := range a {
		if len(a[c]) != len(b[c]) {
			t.Fatal("same seed gave different partition sizes")
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				t.Fatal("same seed gave different partitions")
			}
		}
	}
}

func TestLabelGroups(t *testing.T) {
	labels := balancedLabels(1000, 10)
	groups := [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}
	a := LabelGroups(labels, groups, []int{5, 5}, rng.New(4))
	a.Validate(len(labels))
	if len(a) != 10 {
		t.Fatalf("clients = %d", len(a))
	}
	// Clients 0-4 must hold only classes 0-4, clients 5-9 only 5-9.
	hists := ClientLabelHistograms(a, labels, 10)
	for c := 0; c < 5; c++ {
		for k := 5; k < 10; k++ {
			if hists[c][k] != 0 {
				t.Fatalf("client %d (group 0) holds class %d", c, k)
			}
		}
	}
	for c := 5; c < 10; c++ {
		for k := 0; k < 5; k++ {
			if hists[c][k] != 0 {
				t.Fatalf("client %d (group 1) holds class %d", c, k)
			}
		}
	}
	truth := GroupTruth([]int{5, 5})
	if len(truth) != 10 || truth[0] != 0 || truth[9] != 1 {
		t.Fatalf("GroupTruth = %v", truth)
	}
}

func TestLabelGroupsDuplicateClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate class did not panic")
		}
	}()
	LabelGroups(balancedLabels(10, 3), [][]int{{0, 1}, {1, 2}}, []int{1, 1}, rng.New(1))
}

func TestLabelGroupsUnownedClassDropped(t *testing.T) {
	labels := balancedLabels(30, 3)
	a := LabelGroups(labels, [][]int{{0}, {1}}, []int{1, 1}, rng.New(5))
	// Class 2's 10 examples are dropped.
	total := 0
	for _, idx := range a {
		total += len(idx)
	}
	if total != 20 {
		t.Fatalf("total = %d, want 20", total)
	}
}

func TestProportionsToCounts(t *testing.T) {
	c := proportionsToCounts([]float64{0.5, 0.3, 0.2}, 10)
	if c[0]+c[1]+c[2] != 10 {
		t.Fatalf("counts sum = %v", c)
	}
	if c[0] != 5 || c[1] != 3 || c[2] != 2 {
		t.Fatalf("counts = %v", c)
	}
	// Rounding case
	c2 := proportionsToCounts([]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 10)
	sum := 0
	for _, v := range c2 {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("rounded counts sum = %d", sum)
	}
}

func TestValidateCatchesDuplicates(t *testing.T) {
	a := Assignment{{0, 1}, {1, 2}}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate index did not panic")
		}
	}()
	a.Validate(3)
}

func TestValidateCatchesMissing(t *testing.T) {
	a := Assignment{{0}, {2}}
	defer func() {
		if recover() == nil {
			t.Fatal("missing index did not panic")
		}
	}()
	a.Validate(3)
}
