package linalg

import (
	"fmt"
	"math"
	"runtime"

	"fedclust/internal/sched"
	"fedclust/internal/tensor"
)

// Metric identifies a vector dissimilarity used when building proximity
// matrices over client weight vectors.
type Metric int

const (
	// Euclidean is the L2 distance — the metric FedClust uses on
	// final-layer weights.
	Euclidean Metric = iota
	// Cosine is 1 - cosine similarity — the metric CFL uses on updates.
	Cosine
	// Manhattan is the L1 distance (ablation option).
	Manhattan
)

// String returns a human-readable metric name.
func (m Metric) String() string {
	switch m {
	case Euclidean:
		return "euclidean"
	case Cosine:
		return "cosine"
	case Manhattan:
		return "manhattan"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// VecDistance returns the chosen dissimilarity between equal-length vectors.
func VecDistance(m Metric, a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: VecDistance length mismatch %d vs %d", len(a), len(b)))
	}
	switch m {
	case Euclidean:
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += float64(d * d)
		}
		return math.Sqrt(s)
	case Cosine:
		var dot, na, nb float64
		for i := range a {
			dot += float64(a[i] * b[i])
			na += float64(a[i] * a[i])
			nb += float64(b[i] * b[i])
		}
		if na == 0 || nb == 0 {
			return 1
		}
		return 1 - dot/(math.Sqrt(na)*math.Sqrt(nb))
	case Manhattan:
		var s float64
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s
	default:
		panic(fmt.Sprintf("linalg: unknown metric %d", int(m)))
	}
}

// PairwiseDistances builds the symmetric n×n proximity matrix over the
// given n vectors under metric m; the diagonal is zero. Under Euclidean
// the vectors are packed four at a time into one n·dim panel
// (tensor.EuclideanPanel) and blocks of four rows run as 4×4 distance
// tiles, each cell VecDistance's bits; Cosine and Manhattan call
// VecDistance per pair. Either way the rows (blocks) are shared out on
// the executor once the matrix is large enough, each cell off the
// diagonal has one writer, and the result does not depend on the
// partitioning.
func PairwiseDistances(m Metric, vecs [][]float64) *tensor.Tensor {
	n := len(vecs)
	if n == 0 {
		return tensor.New(0, 0)
	}
	dim := len(vecs[0])
	for i, v := range vecs {
		if len(v) != dim {
			panic(fmt.Sprintf("linalg: PairwiseDistances vector %d has length %d, want %d", i, len(v), dim))
		}
	}
	width := runtime.GOMAXPROCS(0)
	if n*n*dim < 32*1024 {
		width = 1 // below this a region costs more than it saves
	}
	if m != Euclidean {
		return pairwise(n, width, func(i, j int) float64 { return VecDistance(m, vecs[i], vecs[j]) })
	}
	var panel tensor.EuclideanPanel
	panel.Pack(vecs)
	out := tensor.New(n, n)
	sched.Default().Run((n+3)/4, width, func(_, b int) { panel.RowBlockInto(out, 4*b) })
	return out
}

// PairwiseFromFunc builds a symmetric n×n proximity matrix from an
// arbitrary pairwise dissimilarity function (used by PACFL, where the
// "vectors" are subspace bases). f must be symmetric and safe to call
// concurrently; it is called once per unordered pair.
func PairwiseFromFunc(n int, f func(i, j int) float64) *tensor.Tensor {
	return pairwise(n, runtime.GOMAXPROCS(0), f)
}

// pairwise fills the n×n matrix row by row on the shared executor, up to
// width rows at a time: row i writes f(i,j) and its mirror for every
// j > i, so each cell has one writer and the result does not depend on
// the partitioning. Nested inside another region it runs serially.
func pairwise(n, width int, f func(i, j int) float64) *tensor.Tensor {
	out := tensor.New(n, n)
	sched.Default().Run(n, width, func(_, i int) {
		for j := i + 1; j < n; j++ {
			d := f(i, j)
			out.Data[i*n+j], out.Data[j*n+i] = d, d
		}
	})
	return out
}
