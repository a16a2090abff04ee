package tensor

import "math"

// SetUseASM overrides the assembly gate for tests (forcing the pure-Go
// bodies on AVX2 hosts and vice versa) and returns the previous value
// so callers can restore it.
func SetUseASM(v bool) bool {
	old := useASM
	useASM = v
	return old
}

// UseASM reports which kernel path init selected.
func UseASM() bool { return useASM }

// MatMul is the allocating form of MatMulInto the product tests are
// written against.
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulTransAInto is dst = aᵀ·b: MatMulTransAAddInto into a zeroed
// dst, the form the product tests are written against.
func MatMulTransAInto[T Float](dst, a, b *Of[T]) {
	transADims(dst, a, b)
	clear(dst.Data)
	MatMulTransAAddInto(dst, a, b)
}

// Equal reports whether a and b have the same shape and elementwise
// absolute difference at most tol: the product tests' comparison.
func Equal(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
