// Package cluster implements the clustering machinery of the reproduction:
// agglomerative hierarchical clustering with the standard linkages (the
// server-side algorithm of FedClust and PACFL), dendrogram cutting rules —
// fixed-k, largest gap, and the silhouette-parsimony cut that frees
// FedClust from a predefined cluster count — external cluster-quality
// metric (ARI), and the spectral bipartition used by CFL.
// Agglomerate and CutBestSilhouette, the server side of FedClust's
// one-shot formation, are quadratic in the number of clients (DESIGN.md
// §14); their cubic predecessors live on in oracle_test.go as the oracles
// they are tested against.
package cluster

import (
	"fmt"
	"math"

	"fedclust/internal/tensor"
)

// Linkage selects how inter-cluster distance is derived from point
// distances during agglomeration.
type Linkage int

const (
	// Single linkage: minimum pairwise distance.
	Single Linkage = iota
	// Complete linkage: maximum pairwise distance.
	Complete
	// Average linkage (UPGMA): mean pairwise distance. This is the
	// default linkage for FedClust's one-shot clustering.
	Average
	// Ward linkage: minimizes within-cluster variance increase.
	Ward
)

// String returns the linkage name.
func (l Linkage) String() string {
	switch l {
	case Single:
		return "single"
	case Complete:
		return "complete"
	case Average:
		return "average"
	case Ward:
		return "ward"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Merge records one agglomeration step. Cluster ids 0..n-1 are the leaves;
// merge i creates cluster id n+i from A and B at the given distance.
type Merge struct {
	A, B     int
	Distance float64
	Size     int // number of leaves in the new cluster
}

// Dendrogram is the full agglomeration history over n leaves.
type Dendrogram struct {
	N      int
	Merges []Merge
}

// Agglomerate runs agglomerative hierarchical clustering on a symmetric
// n×n proximity matrix using the Lance-Williams update for the chosen
// linkage. The input matrix is not modified. It panics on non-square
// input and on a NaN or infinite entry. A 0- or 1-point input yields an
// empty merge list.
//
// Every step merges the globally closest active pair, the
// lexicographically first (i, j), i < j, on ties. The pair comes from a
// cached first minimum per row over active j > i, so a step is O(n) plus
// an O(n) rescan per row whose cached neighbour was merged away: O(n²)
// overall on all but adversarial inputs, with the merge order and the
// arithmetic of a full O(n²) scan per step, bit for bit.
func Agglomerate(dist *tensor.Tensor, linkage Linkage) *Dendrogram {
	if len(dist.Shape) != 2 || dist.Shape[0] != dist.Shape[1] {
		panic(fmt.Sprintf("cluster: Agglomerate requires a square matrix, got %v", dist.Shape))
	}
	if linkage < Single || linkage > Ward {
		panic(fmt.Sprintf("cluster: unknown linkage %d", int(linkage)))
	}
	n := dist.Shape[0]
	for p, v := range dist.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("cluster: non-finite distance d[%d][%d]=%v", p/n, p%n, v))
		}
	}
	den := &Dendrogram{N: n}
	if n < 2 {
		return den
	}
	// Working distance matrix (row-major) and, per slot: cluster size (0
	// once merged away), current cluster id, cached nearest neighbour.
	d := append([]float64(nil), dist.Data...)
	den.Merges = make([]Merge, 0, n-1)
	size, id, nn, nd := make([]int, n), make([]int, n), make([]int, n), make([]float64, n)
	for i := range size {
		size[i], id[i] = 1, i
	}
	// rescan recomputes row i's first minimum over active j > i.
	rescan := func(i int) {
		nn[i], nd[i] = -1, math.Inf(1)
		row := d[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			if v := row[j]; size[j] > 0 && v < nd[i] {
				nn[i], nd[i] = j, v
			}
		}
	}
	for i := range size {
		rescan(i)
	}
	for step := 0; step < n-1; step++ {
		// The closest active pair: the first row holding the smallest
		// cached distance, and that row's first minimum.
		bi, best := -1, math.Inf(1)
		for i, v := range nd {
			if size[i] > 0 && v < best {
				bi, best = i, v
			}
		}
		if bi < 0 {
			panic("cluster: distances overflowed during agglomeration")
		}
		bj := nn[bi]
		// Merge slot bj into slot bi; bi now holds the new cluster.
		merged := size[bi] + size[bj]
		den.Merges = append(den.Merges, Merge{A: id[bi], B: id[bj], Distance: best, Size: merged})
		ni, nj := float64(size[bi]), float64(size[bj])
		size[bj] = 0
		ri, rj := d[bi*n:(bi+1)*n], d[bj*n:(bj+1)*n]
		for k := 0; k < n; k++ {
			if size[k] == 0 || k == bi {
				continue
			}
			dik, djk := ri[k], rj[k]
			var v float64
			switch linkage {
			case Single:
				v = math.Min(dik, djk)
			case Complete:
				v = math.Max(dik, djk)
			case Average:
				v = (float64(ni*dik) + float64(nj*djk)) / (ni + nj)
			case Ward:
				nk := float64(size[k])
				tot := ni + nj + nk
				v = math.Sqrt((float64((ni+nk)*dik*dik) + float64((nj+nk)*djk*djk) - float64(nk*best*best)) / tot)
			}
			ri[k], d[k*n+bi] = v, v
			// Row k's cache sees column bi change (k < bi) and column bj
			// vanish (k < bj); rows past bj see neither.
			switch {
			case k > bj:
			case nn[k] == bi || nn[k] == bj:
				rescan(k)
			case k < bi && (v < nd[k] || (v == nd[k] && bi < nn[k])):
				nn[k], nd[k] = bi, v
			}
		}
		rescan(bi)
		size[bi], id[bi] = merged, n+step
	}
	return den
}

// CutK cuts the dendrogram into exactly k clusters (1 <= k <= n) and
// returns a length-n assignment with labels 0..k-1 (renumbered by first
// appearance).
func (den *Dendrogram) CutK(k int) []int {
	if k < 1 || k > den.N {
		panic(fmt.Sprintf("cluster: CutK k=%d out of range [1,%d]", k, den.N))
	}
	// Apply the first n-k merges.
	return den.assignAfter(den.N - k)
}

// CutLargestGap finds the largest jump in consecutive merge distances and
// cuts just before it — a parameter-free heuristic for the natural number
// of clusters. With fewer than 2 merges it returns the finest/coarsest
// valid cut. minK/maxK bound the admissible cluster counts (pass 1 and n
// to leave unbounded).
func (den *Dendrogram) CutLargestGap(minK, maxK int) []int {
	n := den.N
	if minK < 1 {
		minK = 1
	}
	if maxK > n {
		maxK = n
	}
	if minK > maxK {
		panic(fmt.Sprintf("cluster: CutLargestGap minK=%d > maxK=%d", minK, maxK))
	}
	if len(den.Merges) == 0 {
		return den.assignAfter(0)
	}
	// Cutting after merge i yields n-i clusters. Admissible i range:
	// k in [minK,maxK] ⇒ i in [n-maxK, n-minK].
	loI, hiI := n-maxK, n-minK
	// The "gap" before merge i is Merges[i].Distance - Merges[i-1].Distance;
	// choosing to stop before merge i means applying i merges.
	bestI, bestGap := hiI, -1.0
	for i := loI; i <= hiI; i++ {
		if i <= 0 || i >= len(den.Merges) {
			// stopping before merge 0 (no merges) has no defined gap; treat
			// the first merge distance itself as its gap so singleton-heavy
			// cuts are only chosen when the first merge is already huge.
			var gap float64
			if i == 0 {
				gap = den.Merges[0].Distance
			} else {
				continue
			}
			if gap > bestGap {
				bestGap, bestI = gap, i
			}
			continue
		}
		gap := den.Merges[i].Distance - den.Merges[i-1].Distance
		if gap > bestGap {
			bestGap, bestI = gap, i
		}
	}
	return den.assignAfter(bestI)
}

// assignAfter applies the first `applied` merges and returns leaf labels
// renumbered to 0..k-1 in order of first appearance.
func (den *Dendrogram) assignAfter(applied int) []int {
	if applied < 0 {
		applied = 0
	}
	if applied > len(den.Merges) {
		applied = len(den.Merges)
	}
	// Union-find over leaf and merge ids: parent[x] == x marks a root,
	// label[r] is the label handed to root r (-1 until a leaf reaches it).
	parent, label := make([]int, den.N+applied), make([]int, den.N+applied)
	for x := range parent {
		parent[x], label[x] = x, -1
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, m := range den.Merges[:applied] {
		parent[find(m.A)] = den.N + i
		parent[find(m.B)] = den.N + i
	}
	labels := make([]int, den.N)
	next := 0
	for i := range labels {
		r := find(i)
		if label[r] < 0 {
			label[r] = next
			next++
		}
		labels[i] = label[r]
	}
	return labels
}

// NumClusters returns the number of distinct labels in an assignment.
func NumClusters(labels []int) int {
	seen := make(map[int]bool)
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}
