package linalg

import (
	"fmt"
	"math"

	"fedclust/internal/tensor"
)

// SVD holds a thin singular value decomposition A = U · diag(S) · Vᵀ of an
// m×n matrix with r = min(m, n): U is m×r, S has length r (descending),
// V is n×r.
type SVD struct {
	U *tensor.Tensor
	S []float64
	V *tensor.Tensor
}

// ComputeSVD returns the thin SVD of a using the one-sided Jacobi method
// (Hestenes), which orthogonalizes the columns of a working copy of A by
// plane rotations; singular values are the resulting column norms. The
// method is slow but simple and very accurate, and the matrices in this
// code base (client data sketches, weight matrices) are small.
func ComputeSVD(a *tensor.Tensor) SVD {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("linalg: SVD requires a rank-2 tensor, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	transposed := false
	work := a.Clone()
	if m < n {
		// One-sided Jacobi wants m >= n; use A = U S Vᵀ ⇔ Aᵀ = V S Uᵀ.
		work = tensor.Transpose(work)
		m, n = n, m
		transposed = true
	}
	v := tensor.New(n, n)
	for i := 0; i < n; i++ {
		v.Set(1, i, i)
	}
	const maxSweeps = 60
	eps := 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		converged := true
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// alpha = ap·ap, beta = aq·aq, gamma = ap·aq
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					ap, aq := work.At(i, p), work.At(i, q)
					alpha += ap * ap
					beta += aq * aq
					gamma += ap * aq
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) || gamma == 0 {
					continue
				}
				converged = false
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta >= 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for i := 0; i < m; i++ {
					ap, aq := work.At(i, p), work.At(i, q)
					work.Set(c*ap-s*aq, i, p)
					work.Set(s*ap+c*aq, i, q)
				}
				for i := 0; i < n; i++ {
					vp, vq := v.At(i, p), v.At(i, q)
					v.Set(c*vp-s*vq, i, p)
					v.Set(s*vp+c*vq, i, q)
				}
			}
		}
		if converged {
			break
		}
	}
	// Column norms are singular values; normalize columns to get U.
	s := make([]float64, n)
	u := tensor.New(m, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			x := work.At(i, j)
			norm += x * x
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			for i := 0; i < m; i++ {
				u.Set(work.At(i, j)/norm, i, j)
			}
		}
	}
	sortSVDDescending(s, u, v)
	if transposed {
		u, v = v, u
	}
	return SVD{U: u, S: s, V: v}
}

// sortSVDDescending reorders singular values (and the matching U, V
// columns) into descending order.
func sortSVDDescending(s []float64, u, v *tensor.Tensor) {
	n := len(s)
	for i := 0; i < n-1; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if s[j] > s[best] {
				best = j
			}
		}
		if best != i {
			s[i], s[best] = s[best], s[i]
			swapCols(u, i, best)
			swapCols(v, i, best)
		}
	}
}

func swapCols(a *tensor.Tensor, i, j int) {
	for r := 0; r < a.Shape[0]; r++ {
		vi, vj := a.At(r, i), a.At(r, j)
		a.Set(vj, r, i)
		a.Set(vi, r, j)
	}
}

// Reconstruct returns U · diag(S) · Vᵀ, the matrix the SVD factors.
func (d SVD) Reconstruct() *tensor.Tensor {
	m := d.U.Shape[0]
	r := len(d.S)
	n := d.V.Shape[0]
	us := tensor.New(m, r)
	for i := 0; i < m; i++ {
		for j := 0; j < r; j++ {
			us.Set(d.U.At(i, j)*d.S[j], i, j)
		}
	}
	out := tensor.New(m, n)
	tensor.MatMulInto(out, us, tensor.Transpose(d.V))
	return out
}

// TruncateU returns the first p left singular vectors as an m×p matrix —
// the rank-p basis of the column space, which is what PACFL transmits.
func (d SVD) TruncateU(p int) *tensor.Tensor {
	m := d.U.Shape[0]
	if p <= 0 || p > d.U.Shape[1] {
		panic(fmt.Sprintf("linalg: TruncateU p=%d out of range (cols=%d)", p, d.U.Shape[1]))
	}
	out := tensor.New(m, p)
	for i := 0; i < m; i++ {
		for j := 0; j < p; j++ {
			out.Set(d.U.At(i, j), i, j)
		}
	}
	return out
}

// Orthonormalize performs modified Gram-Schmidt on the columns of a,
// returning an m×r matrix with orthonormal columns spanning the same space
// (r = number of numerically independent columns).
func Orthonormalize(a *tensor.Tensor) *tensor.Tensor {
	if len(a.Shape) != 2 {
		panic("linalg: Orthonormalize requires a rank-2 tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	cols := make([][]float64, 0, n)
	for j := 0; j < n; j++ {
		v := make([]float64, m)
		for i := 0; i < m; i++ {
			v[i] = a.At(i, j)
		}
		for _, u := range cols {
			var dot float64
			for i := range v {
				dot += v[i] * u[i]
			}
			for i := range v {
				v[i] -= dot * u[i]
			}
		}
		var norm float64
		for _, x := range v {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			continue // linearly dependent column
		}
		for i := range v {
			v[i] /= norm
		}
		cols = append(cols, v)
	}
	out := tensor.New(m, len(cols))
	for j, v := range cols {
		for i := 0; i < m; i++ {
			out.Set(v[i], i, j)
		}
	}
	return out
}

// PrincipalAngles returns the principal angles (radians, ascending) between
// the column spaces of u1 (m×p) and u2 (m×q). Both inputs must have
// orthonormal columns (use Orthonormalize or SVD.TruncateU). The angles are
// acos of the singular values of u1ᵀ·u2, clamped to [0, π/2].
func PrincipalAngles(u1, u2 *tensor.Tensor) []float64 {
	if u1.Shape[0] != u2.Shape[0] {
		panic(fmt.Sprintf("linalg: PrincipalAngles ambient dims differ: %v vs %v", u1.Shape, u2.Shape))
	}
	m := tensor.New(u1.Shape[1], u2.Shape[1])
	tensor.MatMulInto(m, tensor.Transpose(u1), u2)
	d := ComputeSVD(m)
	angles := make([]float64, len(d.S))
	for i, s := range d.S {
		if s > 1 {
			s = 1
		}
		if s < 0 {
			s = 0
		}
		angles[i] = math.Acos(s)
	}
	// Singular values descending ⇒ angles ascending already.
	return angles
}

// SubspaceDistance returns the PACFL proximity between two orthonormal
// bases: the sum (in degrees) of the principal angles of the smaller
// dimension. Identical subspaces give 0, orthogonal ones p·90.
func SubspaceDistance(u1, u2 *tensor.Tensor) float64 {
	angles := PrincipalAngles(u1, u2)
	var sum float64
	for _, a := range angles {
		sum += a * 180 / math.Pi
	}
	return sum
}
