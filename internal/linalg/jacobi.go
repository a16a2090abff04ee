// Package linalg implements the dense linear algebra the clustered-FL
// methods need: a symmetric Jacobi eigensolver (spectral bipartition in
// CFL), a one-sided Jacobi SVD and principal angles between subspaces
// (PACFL), orthonormalization, and parallel pairwise distance matrices
// (FedClust proximity matrix).
//
// All routines operate on internal/tensor rank-2 tensors and are designed
// for the small/medium problem sizes of FL simulation (tens to a few
// hundred clients, feature dimensions in the thousands).
package linalg

import (
	"fmt"
	"math"

	"fedclust/internal/tensor"
)

// SymEig computes the full eigendecomposition of a symmetric n×n matrix
// using the cyclic Jacobi rotation method. It returns the eigenvalues in
// descending order and the matching eigenvectors as the columns of v.
// The input is not modified.
func SymEig(a *tensor.Tensor) (vals []float64, v *tensor.Tensor) {
	if len(a.Shape) != 2 || a.Shape[0] != a.Shape[1] {
		panic(fmt.Sprintf("linalg: SymEig requires a square matrix, got %v", a.Shape))
	}
	n := a.Shape[0]
	w := a.Clone()
	v = tensor.New(n, n)
	for i := 0; i < n; i++ {
		v.Set(1, i, i)
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off < 1e-13*(1+frobNorm(w)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				// Stable computation of the rotation angle.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+float64(tau*tau)))
				} else {
					t = -1 / (-tau + math.Sqrt(1+float64(tau*tau)))
				}
				c := 1 / math.Sqrt(1+float64(t*t))
				s := t * c
				rotate(w, v, p, q, c, s)
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	sortEigenDescending(vals, v)
	return vals, v
}

// rotate applies the Jacobi rotation J(p,q,c,s) as w ← JᵀwJ and
// accumulates v ← vJ.
func rotate(w, v *tensor.Tensor, p, q int, c, s float64) {
	n := w.Shape[0]
	for i := 0; i < n; i++ {
		wip, wiq := w.At(i, p), w.At(i, q)
		w.Set(float64(c*wip)-float64(s*wiq), i, p)
		w.Set(float64(s*wip)+float64(c*wiq), i, q)
	}
	for j := 0; j < n; j++ {
		wpj, wqj := w.At(p, j), w.At(q, j)
		w.Set(float64(c*wpj)-float64(s*wqj), p, j)
		w.Set(float64(s*wpj)+float64(c*wqj), q, j)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(float64(c*vip)-float64(s*viq), i, p)
		v.Set(float64(s*vip)+float64(c*viq), i, q)
	}
}

func offDiagNorm(w *tensor.Tensor) float64 {
	n := w.Shape[0]
	var s float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				x := w.At(i, j)
				s += float64(x * x)
			}
		}
	}
	return math.Sqrt(s)
}

func frobNorm(w *tensor.Tensor) float64 { return w.Norm() }

// sortEigenDescending reorders eigenvalues (and matching eigenvector
// columns) into descending order by value.
func sortEigenDescending(vals []float64, v *tensor.Tensor) {
	n := len(vals)
	for i := 0; i < n-1; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if vals[j] > vals[best] {
				best = j
			}
		}
		if best != i {
			vals[i], vals[best] = vals[best], vals[i]
			for r := 0; r < n; r++ {
				vi, vb := v.At(r, i), v.At(r, best)
				v.Set(vb, r, i)
				v.Set(vi, r, best)
			}
		}
	}
}
