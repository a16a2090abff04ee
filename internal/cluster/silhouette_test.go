package cluster

import (
	"fmt"
	"math"
	"testing"

	"fedclust/internal/linalg"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

func TestSilhouetteWellSeparated(t *testing.T) {
	// Two tight, far-apart pairs: silhouette of the true labeling ≈ 1.
	vecs := [][]float64{{0}, {0.1}, {100}, {100.1}}
	d := linalg.PairwiseDistances(linalg.Euclidean, vecs)
	s := Silhouette(d, []int{0, 0, 1, 1})
	if s < 0.99 {
		t.Fatalf("silhouette = %v, want ≈1", s)
	}
	// A wrong labeling must score strictly lower.
	bad := Silhouette(d, []int{0, 1, 0, 1})
	if bad >= s {
		t.Fatalf("bad labeling silhouette %v >= good %v", bad, s)
	}
}

func TestSilhouetteSingleClusterZero(t *testing.T) {
	vecs := [][]float64{{0}, {1}, {2}}
	d := linalg.PairwiseDistances(linalg.Euclidean, vecs)
	if s := Silhouette(d, []int{0, 0, 0}); s != 0 {
		t.Fatalf("single-cluster silhouette = %v, want 0", s)
	}
}

func TestSilhouetteSingletonsContributeZero(t *testing.T) {
	vecs := [][]float64{{0}, {1}, {100}}
	d := linalg.PairwiseDistances(linalg.Euclidean, vecs)
	// {0,1} together, {100} singleton: only the pair contributes.
	s := Silhouette(d, []int{0, 0, 1})
	if s <= 0.5 {
		t.Fatalf("silhouette with singleton = %v", s)
	}
}

func TestSilhouetteMismatchedSizesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatch did not panic")
		}
	}()
	Silhouette(tensor.New(2, 2), []int{0, 0, 1})
}

func TestCutBestSilhouetteFindsTrueK(t *testing.T) {
	// Three clean blobs: the silhouette cut must pick k=3 from the range
	// [2, 6] without being told.
	r := rng.New(1)
	var vecs [][]float64
	var truth []int
	for g := 0; g < 3; g++ {
		for i := 0; i < 4; i++ {
			vecs = append(vecs, []float64{float64(g)*50 + r.NormFloat64(), float64(g)*-30 + r.NormFloat64()})
			truth = append(truth, g)
		}
	}
	d := linalg.PairwiseDistances(linalg.Euclidean, vecs)
	den := Agglomerate(d, Average)
	labels := den.CutBestSilhouette(d, 2, 6, SilhouetteTolerance)
	if NumClusters(labels) != 3 {
		t.Fatalf("silhouette cut k = %d, want 3", NumClusters(labels))
	}
	if ARI(labels, truth) != 1 {
		t.Fatalf("silhouette cut ARI = %v", ARI(labels, truth))
	}
}

func TestCutBestSilhouetteDegenerateRange(t *testing.T) {
	vecs := [][]float64{{0}, {1}}
	d := linalg.PairwiseDistances(linalg.Euclidean, vecs)
	den := Agglomerate(d, Average)
	// maxK < 2 → trivial single cluster.
	labels := den.CutBestSilhouette(d, 2, 1, 0)
	if NumClusters(labels) != 1 {
		t.Fatalf("degenerate range should give 1 cluster, got %d", NumClusters(labels))
	}
}

func TestSilhouetteRange(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(10)
		vecs := make([][]float64, n)
		labels := make([]int, n)
		for i := range vecs {
			vecs[i] = []float64{r.NormFloat64(), r.NormFloat64()}
			labels[i] = r.Intn(3)
		}
		d := linalg.PairwiseDistances(linalg.Euclidean, vecs)
		s := Silhouette(d, labels)
		if math.IsNaN(s) || s < -1 || s > 1 {
			t.Fatalf("silhouette out of range: %v", s)
		}
	}
}

// Silhouette is the definition silhouetteScores is held to: the mean
// silhouette coefficient of a labeling against a precomputed distance
// matrix. For each point, a is the mean distance to its own cluster
// (excluding itself) and b the smallest mean distance to any other
// cluster; the coefficient is (b-a)/max(a,b). Singleton clusters
// contribute 0 (the standard convention). The result lies in [-1, 1];
// higher means tighter, better-separated clusters.
func Silhouette(dist *tensor.Tensor, labels []int) float64 {
	n := len(labels)
	if dist.Shape[0] != n || dist.Shape[1] != n {
		panic(fmt.Sprintf("cluster: Silhouette labels/matrix mismatch: %d vs %v", n, dist.Shape))
	}
	if n == 0 {
		return 0
	}
	members := Members(labels)
	if len(members) < 2 {
		return 0 // silhouette undefined for a single cluster
	}
	var total float64
	for i := 0; i < n; i++ {
		own := members[labels[i]]
		if len(own) == 1 {
			continue // singleton: contributes 0
		}
		var a float64
		for _, j := range own {
			if j != i {
				a += dist.At(i, j)
			}
		}
		a /= float64(len(own) - 1)
		b := math.Inf(1)
		for l, m := range members {
			if l == labels[i] {
				continue
			}
			var d float64
			for _, j := range m {
				d += dist.At(i, j)
			}
			d /= float64(len(m))
			if d < b {
				b = d
			}
		}
		denom := math.Max(a, b)
		if denom > 0 {
			total += (b - a) / denom
		}
	}
	return total / float64(n)
}

// Members returns, for each cluster label, the sorted member indices.
func Members(labels []int) map[int][]int {
	out := make(map[int][]int)
	for i, l := range labels {
		out[l] = append(out[l], i)
	}
	return out
}
