package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"fedclust/internal/linalg"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// twoBlobs builds n points in two well-separated 1-D blobs and returns the
// distance matrix plus ground-truth labels.
func twoBlobs(n int, sep float64, r *rng.Rng) (*tensor.Tensor, []int) {
	vecs := make([][]float64, n)
	truth := make([]int, n)
	for i := range vecs {
		g := 0
		if i >= n/2 {
			g = 1
		}
		truth[i] = g
		vecs[i] = []float64{float64(g)*sep + 0.1*r.NormFloat64()}
	}
	return linalg.PairwiseDistances(linalg.Euclidean, vecs), truth
}

func TestAgglomerateTwoBlobsAllLinkages(t *testing.T) {
	r := rng.New(1)
	d, truth := twoBlobs(12, 50, r)
	for _, l := range []Linkage{Single, Complete, Average, Ward} {
		den := Agglomerate(d, l)
		if len(den.Merges) != 11 {
			t.Fatalf("%v: %d merges, want 11", l, len(den.Merges))
		}
		labels := den.CutK(2)
		if ari := ARI(labels, truth); ari != 1 {
			t.Fatalf("%v: ARI = %v, want 1 on well-separated blobs", l, ari)
		}
	}
}

func TestCutKExactClusterCounts(t *testing.T) {
	r := rng.New(2)
	d, _ := twoBlobs(10, 10, r)
	den := Agglomerate(d, Average)
	for k := 1; k <= 10; k++ {
		labels := den.CutK(k)
		if got := NumClusters(labels); got != k {
			t.Fatalf("CutK(%d) produced %d clusters", k, got)
		}
	}
}

func TestCutKPanicsOutOfRange(t *testing.T) {
	r := rng.New(3)
	d, _ := twoBlobs(6, 10, r)
	den := Agglomerate(d, Average)
	for _, k := range []int{0, 7, -1} {
		func(k int) {
			defer func() {
				if recover() == nil {
					t.Fatalf("CutK(%d) did not panic", k)
				}
			}()
			den.CutK(k)
		}(k)
	}
}

func TestMergeDistancesMonotoneForReducibleLinkages(t *testing.T) {
	// Complete, average, and Ward are reducible: merge distances must be
	// non-decreasing. (Single linkage is too, with Lance-Williams.)
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 4 + r.Intn(12)
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		}
		d := linalg.PairwiseDistances(linalg.Euclidean, vecs)
		for _, l := range []Linkage{Single, Complete, Average, Ward} {
			m := Agglomerate(d, l).Merges
			for i := 1; i < len(m); i++ {
				if m[i].Distance < m[i-1].Distance-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCutLargestGapFindsNaturalClusters(t *testing.T) {
	// Three tight triples far apart: the gap cut should find k=3 without
	// being told.
	r := rng.New(4)
	var vecs [][]float64
	var truth []int
	for g := 0; g < 3; g++ {
		for i := 0; i < 3; i++ {
			vecs = append(vecs, []float64{float64(g) * 100, float64(g) * -50})
			truth = append(truth, g)
		}
	}
	for i := range vecs {
		vecs[i][0] += 0.5 * r.NormFloat64()
		vecs[i][1] += 0.5 * r.NormFloat64()
	}
	d := linalg.PairwiseDistances(linalg.Euclidean, vecs)
	den := Agglomerate(d, Average)
	labels := den.CutLargestGap(1, len(vecs))
	if NumClusters(labels) != 3 {
		t.Fatalf("gap cut found %d clusters, want 3 (%v)", NumClusters(labels), labels)
	}
	if ARI(labels, truth) != 1 {
		t.Fatalf("gap cut ARI = %v", ARI(labels, truth))
	}
}

func TestCutLargestGapRespectsBounds(t *testing.T) {
	r := rng.New(5)
	d, _ := twoBlobs(10, 40, r)
	den := Agglomerate(d, Average)
	labels := den.CutLargestGap(3, 5)
	k := NumClusters(labels)
	if k < 3 || k > 5 {
		t.Fatalf("bounded gap cut gave k=%d outside [3,5]", k)
	}
}

func TestAgglomerateDegenerate(t *testing.T) {
	if den := Agglomerate(tensor.New(0, 0), Average); len(den.Merges) != 0 {
		t.Fatal("empty input should have no merges")
	}
	den := Agglomerate(tensor.New(1, 1), Average)
	if len(den.Merges) != 0 {
		t.Fatal("single point should have no merges")
	}
	if labels := den.CutK(1); len(labels) != 1 || labels[0] != 0 {
		t.Fatalf("single point labels = %v", labels)
	}
}

func TestAgglomerateTiedDistances(t *testing.T) {
	// Four identical points: all distances zero; must not crash and a
	// k=1 cut groups everything.
	vecs := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	d := linalg.PairwiseDistances(linalg.Euclidean, vecs)
	den := Agglomerate(d, Ward)
	if NumClusters(den.CutK(1)) != 1 {
		t.Fatal("identical points should merge into one cluster")
	}
	for _, m := range den.Merges {
		if m.Distance != 0 {
			t.Fatalf("zero-distance points merged at distance %v", m.Distance)
		}
	}
}

func TestDendrogramLabelsAreCanonical(t *testing.T) {
	// Labels must be 0..k-1 renumbered by first appearance.
	r := rng.New(6)
	d, _ := twoBlobs(8, 30, r)
	labels := Agglomerate(d, Complete).CutK(2)
	if labels[0] != 0 {
		t.Fatalf("first label must be 0, got %v", labels)
	}
	maxL := 0
	for _, l := range labels {
		if l > maxL {
			maxL = l
		}
	}
	if maxL != 1 {
		t.Fatalf("labels not compact: %v", labels)
	}
}

func TestMembers(t *testing.T) {
	m := Members([]int{0, 1, 0, 2, 1})
	if len(m) != 3 || len(m[0]) != 2 || m[0][0] != 0 || m[0][1] != 2 {
		t.Fatalf("Members = %v", m)
	}
}

func TestLinkageString(t *testing.T) {
	if Single.String() != "single" || Ward.String() != "ward" ||
		Average.String() != "average" || Complete.String() != "complete" {
		t.Fatal("Linkage.String wrong")
	}
}

func TestWardPrefersCompactClusters(t *testing.T) {
	// Two elongated but separated strips; Ward with k=2 must split on the
	// big gap, not inside a strip.
	var vecs [][]float64
	var truth []int
	for i := 0; i < 6; i++ {
		vecs = append(vecs, []float64{float64(i) * 1.0, 0})
		truth = append(truth, 0)
		vecs = append(vecs, []float64{float64(i) * 1.0, 100})
		truth = append(truth, 1)
	}
	d := linalg.PairwiseDistances(linalg.Euclidean, vecs)
	labels := Agglomerate(d, Ward).CutK(2)
	if ARI(labels, truth) != 1 {
		t.Fatalf("Ward split ARI = %v", ARI(labels, truth))
	}
}

func TestSingleLinkageChains(t *testing.T) {
	// A chain 0-1-2-...-7 with unit gaps plus one far point: single
	// linkage at k=2 isolates the far point.
	var vecs [][]float64
	for i := 0; i < 8; i++ {
		vecs = append(vecs, []float64{float64(i)})
	}
	vecs = append(vecs, []float64{1000})
	d := linalg.PairwiseDistances(linalg.Euclidean, vecs)
	labels := Agglomerate(d, Single).CutK(2)
	for i := 0; i < 8; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("chain broken by single linkage: %v", labels)
		}
	}
	if labels[8] == labels[0] {
		t.Fatalf("far point not isolated: %v", labels)
	}
}

func TestAgglomerateMatchesBruteForceAverage(t *testing.T) {
	// Cross-check the Lance-Williams average linkage against a brute-force
	// recomputation from the original distance matrix.
	r := rng.New(7)
	n := 9
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = []float64{r.NormFloat64(), r.NormFloat64()}
	}
	d := linalg.PairwiseDistances(linalg.Euclidean, vecs)
	den := Agglomerate(d, Average)

	// Brute force: maintain explicit member lists.
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	avgDist := func(a, b []int) float64 {
		var s float64
		for _, i := range a {
			for _, j := range b {
				s += d.At(i, j)
			}
		}
		return s / float64(len(a)*len(b))
	}
	for step := 0; step < n-1; step++ {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if v := avgDist(clusters[i], clusters[j]); v < best {
					best, bi, bj = v, i, j
				}
			}
		}
		if math.Abs(den.Merges[step].Distance-best) > 1e-9 {
			t.Fatalf("merge %d: Lance-Williams distance %v != brute force %v",
				step, den.Merges[step].Distance, best)
		}
		merged := append(append([]int{}, clusters[bi]...), clusters[bj]...)
		clusters = append(clusters[:bj], clusters[bj+1:]...)
		clusters[bi] = merged
	}
}
