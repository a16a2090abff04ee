package cluster

import (
	"fmt"
	"math"
	"slices"

	"fedclust/internal/tensor"
)

// Silhouette computes the mean silhouette coefficient of a labeling
// against a precomputed distance matrix. For each point, a is the mean
// distance to its own cluster (excluding itself) and b the smallest mean
// distance to any other cluster; the coefficient is (b-a)/max(a,b).
// Singleton clusters contribute 0 (the standard convention). The result
// lies in [-1, 1]; higher means tighter, better-separated clusters.
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

// SilhouetteTolerance is the default parsimony tolerance for
// CutBestSilhouette: among cluster counts whose silhouette is within this
// much of the maximum, the smallest count wins. This is the
// one-standard-error rule of model selection adapted to silhouettes —
// finer cuts must earn their keep, since each extra cluster halves the
// data its federated model trains on.
const SilhouetteTolerance = 0.05

// CutBestSilhouette cuts the dendrogram at a cluster count in
// [minK, maxK] chosen by silhouette over the given distance matrix: the
// smallest k whose mean silhouette is within tol of the best. This is the
// selector FedClust uses when no cluster count is specified: it needs
// neither a predefined K (IFCA's weakness) nor a distance threshold.
// Pass tol = 0 for the strict argmax. minK is clamped to 2 (silhouette is
// undefined below that); if maxK < 2 the trivial one-cluster labeling is
// returned.
func (den *Dendrogram) CutBestSilhouette(dist *tensor.Tensor, minK, maxK int, tol float64) []int {
	if tol < 0 {
		panic(fmt.Sprintf("cluster: negative silhouette tolerance %v", tol))
	}
	if minK < 2 {
		minK = 2
	}
	if maxK > den.N {
		maxK = den.N
	}
	if maxK < minK {
		return den.CutK(1)
	}
	scores := den.silhouetteScores(dist, minK, maxK)
	best := math.Inf(-1)
	for _, s := range scores {
		if s > best {
			best = s
		}
	}
	for i, s := range scores {
		if s >= best-tol {
			return den.CutK(minK + i)
		}
	}
	return den.CutK(minK) // unreachable; defensive
}

// silhouetteScores returns Silhouette(dist, den.CutK(k)), up to summation
// order, for every k in [minK, maxK] (2 <= minK <= maxK <= n) at index
// k-minK, from one walk down the merges instead of an O(n²) evaluation
// per k. dist must be symmetric; its diagonal is ignored.
//
// The walk keeps sum[c*n+i] = Σ_{j in c} d(i,j) per live cluster c (a
// merge is one row add), which makes a point's mean distance to a cluster
// one division, and per point the smallest such mean over the clusters it
// is not in (near, reached at cluster arg). Merging b into a leaves every
// other cluster's means alone, so only points whose arg was a or b are
// rescanned (O(k) each); the rest compare against the merged row once.
func (den *Dendrogram) silhouetteScores(dist *tensor.Tensor, minK, maxK int) []float64 {
	n := den.N
	if len(dist.Shape) != 2 || dist.Shape[0] != n || dist.Shape[1] != n {
		panic(fmt.Sprintf("cluster: Silhouette labels/matrix mismatch: %d vs %v", n, dist.Shape))
	}
	scores := make([]float64, maxK-minK+1) // k = n (all singletons) scores 0
	sum := append([]float64(nil), dist.Data...)
	near := make([]float64, n)
	ints := make([]int, 6*n) // one allocation, whatever n
	size, own, arg, live := ints[:n], ints[n:2*n], ints[2*n:3*n], ints[3*n:4*n]
	row := ints[4*n:] // row[id]: where cluster id's sums live, leaves and merges alike
	for i := 0; i < n; i++ {
		sum[i*n+i] = 0
		size[i], own[i], live[i], row[i] = 1, i, i, i
	}
	// rescan recomputes point i's nearest other cluster from scratch.
	rescan := func(i int) {
		near[i], arg[i] = math.Inf(1), -1
		for _, c := range live {
			if c == own[i] {
				continue
			}
			if m := sum[c*n+i] / float64(size[c]); m < near[i] {
				near[i], arg[i] = m, c
			}
		}
	}
	first := min(maxK, n-1) // the first k scored: every point is scanned there
	for step, mg := range den.Merges[:n-minK] {
		a, b := row[mg.A], row[mg.B]
		row[n+step] = a
		ra := sum[a*n : (a+1)*n]
		for i, v := range sum[b*n : (b+1)*n] {
			ra[i] += v
			if own[i] == b {
				own[i] = a
			}
		}
		size[a] += size[b]
		live[slices.Index(live, b)] = live[len(live)-1]
		live = live[:len(live)-1]
		k := n - step - 1
		if k > maxK {
			continue
		}
		var total float64
		for i := 0; i < n; i++ {
			switch {
			case k == first || arg[i] == a || arg[i] == b:
				rescan(i)
			case own[i] != a:
				if m := ra[i] / float64(size[a]); m < near[i] {
					near[i], arg[i] = m, a
				}
			}
			if sz := size[own[i]]; sz > 1 {
				ai := sum[own[i]*n+i] / float64(sz-1)
				if denom := math.Max(ai, near[i]); denom > 0 {
					total += (near[i] - ai) / denom
				}
			}
		}
		scores[k-minK] = total / float64(n)
	}
	return scores
}
