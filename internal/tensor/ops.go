package tensor

import (
	"fmt"
	"math"
)

// AddScaled adds s*o to t in place (axpy), the product rounded before the
// sum: through the element type's assembly axpy on AVX2 hosts, the loop
// otherwise, the same bits either way.
func (t *Of[T]) AddScaled(o *Of[T], s T) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddScaled shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	if n := len(t.Data); useASM && n > 0 {
		axpyAVX2(&t.Data[0], &o.Data[0], s, n)
		return
	}
	for i := range t.Data {
		t.Data[i] += T(s * o.Data[i])
	}
}

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
