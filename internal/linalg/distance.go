package linalg

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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
// given n vectors under metric m. Rows of the result are computed in
// parallel across GOMAXPROCS workers; the diagonal is zero.
func PairwiseDistances(m Metric, vecs [][]float64) *tensor.Tensor {
	n := len(vecs)
	out := tensor.New(n, n)
	if n == 0 {
		return out
	}
	dim := len(vecs[0])
	for i, v := range vecs {
		if len(v) != dim {
			panic(fmt.Sprintf("linalg: PairwiseDistances vector %d has length %d, want %d", i, len(v), dim))
		}
	}
	// Workers claim rows off a shared counter; the worker holding row i
	// writes d(i,j) and its mirror d(j,i) for j > i — one writer per cell.
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if n*n*dim < 32*1024 || workers < 2 {
		workers = 1
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				for j := i + 1; j < n; j++ {
					d := VecDistance(m, vecs[i], vecs[j])
					out.Data[i*n+j], out.Data[j*n+i] = d, d
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// PairwiseFromFunc builds a symmetric n×n proximity matrix from an
// arbitrary pairwise dissimilarity function (used by PACFL, where the
// "vectors" are subspace bases). f must be symmetric; it is called once
// per unordered pair, in parallel.
func PairwiseFromFunc(n int, f func(i, j int) float64) *tensor.Tensor {
	out := tensor.New(n, n)
	type pair struct{ i, j int }
	pairs := make(chan pair, n)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range pairs {
				d := f(p.i, p.j)
				out.Set(d, p.i, p.j)
				out.Set(d, p.j, p.i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs <- pair{i, j}
		}
	}
	close(pairs)
	wg.Wait()
	return out
}
