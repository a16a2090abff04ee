package tensor

import "math"

// Norm returns the Euclidean (Frobenius) norm of t.
func (t *Of[T]) Norm() T {
	var s T
	for _, x := range t.Data {
		s += T(x * x)
	}
	return T(math.Sqrt(float64(s)))
}

// MaxAbs returns the largest absolute element value (0 for empty tensors).
func (t *Of[T]) MaxAbs() T {
	var m T
	for _, x := range t.Data {
		if a := T(math.Abs(float64(x))); a > m {
			m = a
		}
	}
	return m
}
