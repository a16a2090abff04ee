package tensor

import (
	"fmt"
	"math"
)

// checkSameShape panics unless a and b have identical shapes.
func checkSameShape[T Float](op string, a, b *Of[T]) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// AddInto sets dst = a + b elementwise. dst may alias a or b.
func AddInto(dst, a, b *Tensor) {
	checkSameShape("Add", a, b)
	checkSameShape("Add", a, dst)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Add returns a + b as a new tensor.
func Add(a, b *Tensor) *Tensor {
	out := New(a.Shape...)
	AddInto(out, a, b)
	return out
}

// SubInto sets dst = a - b elementwise. dst may alias a or b.
func SubInto(dst, a, b *Tensor) {
	checkSameShape("Sub", a, b)
	checkSameShape("Sub", a, dst)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Sub returns a - b as a new tensor.
func Sub(a, b *Tensor) *Tensor {
	out := New(a.Shape...)
	SubInto(out, a, b)
	return out
}

// MulInto sets dst = a * b elementwise (Hadamard product).
func MulInto(dst, a, b *Tensor) {
	checkSameShape("Mul", a, b)
	checkSameShape("Mul", a, dst)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// Mul returns the elementwise product of a and b.
func Mul(a, b *Tensor) *Tensor {
	out := New(a.Shape...)
	MulInto(out, a, b)
	return out
}

// Scale multiplies every element of t by s in place.
func (t *Of[T]) Scale(s T) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AddScaled adds s*o to t in place (axpy). Float32 tensors go through
// the axpy32 primitive (AVX2 where available), float64 through the plain
// loop — the two round differently, so the choice is part of each
// element type's bit contract.
func (t *Of[T]) AddScaled(o *Of[T], s T) {
	checkSameShape("AddScaled", t, o)
	if t32, ok := any(t).(*Tensor32); ok {
		axpy32(t32.Data, any(o).(*Tensor32).Data, float32(s))
		return
	}
	for i := range t.Data {
		t.Data[i] += T(s * o.Data[i])
	}
}

// Apply replaces every element x with f(x) in place.
func (t *Of[T]) Apply(f func(T) T) {
	for i, x := range t.Data {
		t.Data[i] = f(x)
	}
}

// Sum returns the sum of all elements.
func (t *Of[T]) Sum() T {
	var s T
	for _, x := range t.Data {
		s += x
	}
	return s
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

// Equal reports whether a and b have the same shape and elementwise
// absolute difference at most tol.
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
