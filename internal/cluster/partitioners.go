package cluster

import (
	"fmt"

	"fedclust/internal/linalg"
	"fedclust/internal/tensor"
)

// SpectralBipartition splits n items into two groups from a similarity
// matrix (higher = more similar) by the sign of the second eigenvector of
// the unnormalized graph Laplacian (the Fiedler vector). CFL (Sattler et
// al.) uses exactly this on the cosine-similarity matrix of client updates.
// Returns a 0/1 assignment. Degenerate inputs (n < 2) return all-zeros.
func SpectralBipartition(sim *tensor.Tensor) []int {
	if len(sim.Shape) != 2 || sim.Shape[0] != sim.Shape[1] {
		panic(fmt.Sprintf("cluster: SpectralBipartition requires a square matrix, got %v", sim.Shape))
	}
	n := sim.Shape[0]
	labels := make([]int, n)
	if n < 2 {
		return labels
	}
	// Laplacian L = D - W, with W = sim clipped to non-negative and
	// zero diagonal.
	lap := tensor.New(n, n)
	for i := 0; i < n; i++ {
		var deg float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			w := sim.At(i, j)
			if w < 0 {
				w = 0
			}
			lap.Set(-w, i, j)
			deg += w
		}
		lap.Set(deg, i, i)
	}
	vals, vecs := eigAscending(lap)
	_ = vals
	// Fiedler vector: eigenvector of the second-smallest eigenvalue.
	f := make([]float64, n)
	for i := 0; i < n; i++ {
		f[i] = vecs.At(i, 1)
	}
	for i, v := range f {
		if v >= 0 {
			labels[i] = 0
		} else {
			labels[i] = 1
		}
	}
	// Guard against a degenerate all-one-side split: fall back to a
	// median split of the Fiedler vector.
	if NumClusters(labels) == 1 {
		med := medianOf(f)
		for i, v := range f {
			if v > med {
				labels[i] = 1
			} else {
				labels[i] = 0
			}
		}
		if NumClusters(labels) == 1 {
			labels[0] = 1 - labels[0] // last resort: peel one element
		}
	}
	return labels
}

// eigAscending returns eigenvalues ascending with matching eigenvector
// columns, reusing the descending Jacobi solver.
func eigAscending(a *tensor.Tensor) ([]float64, *tensor.Tensor) {
	valsDesc, vDesc := linalg.SymEig(a)
	n := len(valsDesc)
	vals := make([]float64, n)
	v := tensor.New(n, n)
	for j := 0; j < n; j++ {
		src := n - 1 - j
		vals[j] = valsDesc[src]
		for i := 0; i < n; i++ {
			v.Set(vDesc.At(i, src), i, j)
		}
	}
	return vals, v
}

func medianOf(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	// insertion sort: n is small here
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
