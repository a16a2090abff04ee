// Package tensor implements dense row-major tensors and the numerical
// kernels (matrix multiply, the convolution and its backward read in
// place, im2col) that the neural network stack is built on.
//
// The package is deliberately small: shapes are explicit, storage is a
// flat slice, and there is no autograd — layers in internal/nn implement
// their own backward passes against these kernels. One implementation,
// Of[T], serves both element types, the matmul row kernels included:
// every output element is one chain, p ascending, each product rounded
// before its sum, zero multiplicands skipped. Only the assembly under
// them differs per type — an a·bᵀ tile and two axpys for each — and on
// AVX2 hosts it, and the run copy under the unroll, sits behind one
// per-process gate (DESIGN.md §10).
package tensor

import "fmt"

// useASM is true when init (simd_amd64.go) found AVX2 and an OS that
// saves the YMM state. It is the one gate in front of every assembly
// kernel — the a·bᵀ tile and the two axpys of each element type, the
// strided run copy — and it is written once, before any kernel runs. The
// assembly gives the Go bodies' bits in both element types, so the gate
// decides speed only.
var useASM bool

// Float is the element-type constraint of the numeric stack.
type Float interface{ float32 | float64 }

// Of is a dense row-major array of arbitrary rank over element type T.
type Of[T Float] struct {
	// Shape holds the extent of each dimension; it must not be mutated
	// after construction (FromSlice(t.Data, shape...) is a new header over
	// the same storage).
	Shape []int
	// Data is the flat backing storage of length prod(Shape).
	Data []T
}

// Tensor is the float64 tensor: master weights, aggregation and the
// golden reference compute path.
type Tensor = Of[float64]

// Tensor32 is the float32 tensor backing the SIMD compute path.
type Tensor32 = Of[float32]

// prod returns the product of dims, and panics on negative extents.
func prod(dims []int) int {
	p := 1
	for _, d := range dims {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, dims))
		}
		p *= d
	}
	return p
}

// NewOf returns a zero-filled tensor of the given shape.
func NewOf[T Float](shape ...int) *Of[T] {
	return &Of[T]{Shape: append([]int(nil), shape...), Data: make([]T, prod(shape))}
}

// New is NewOf[float64] (a call without operands has no element type to
// infer).
func New(shape ...int) *Tensor { return NewOf[float64](shape...) }

// New32 is NewOf[float32].
func New32(shape ...int) *Tensor32 { return NewOf[float32](shape...) }

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it panics if len(data) != prod(shape).
func FromSlice[T Float](data []T, shape ...int) *Of[T] {
	if len(data) != prod(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Of[T]{Shape: append([]int(nil), shape...), Data: data}
}

// FromSlice32 is FromSlice for float32 data.
func FromSlice32(data []float32, shape ...int) *Tensor32 { return FromSlice(data, shape...) }

// Clone returns a deep copy of t.
func (t *Of[T]) Clone() *Of[T] {
	c := NewOf[T](t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Size returns the total number of elements.
func (t *Of[T]) Size() int { return len(t.Data) }

// SameShape reports whether t and o have identical shapes.
func (t *Of[T]) SameShape(o *Of[T]) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if o.Shape[i] != d {
			return false
		}
	}
	return true
}

// index converts multi-dimensional indices to a flat offset, with bounds
// checks on every axis.
func (t *Of[T]) index(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (extent %d)", x, i, t.Shape[i]))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// At returns the element at the given multi-dimensional index.
func (t *Of[T]) At(idx ...int) T { return t.Data[t.index(idx)] }

// Set assigns the element at the given multi-dimensional index.
func (t *Of[T]) Set(v T, idx ...int) { t.Data[t.index(idx)] = v }

// Zero sets every element to 0.
func (t *Of[T]) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Row returns a view (shared storage) of row i of a rank-2 tensor.
func (t *Of[T]) Row(i int) []T {
	if len(t.Shape) != 2 {
		panic("tensor: Row requires a rank-2 tensor")
	}
	cols := t.Shape[1]
	return t.Data[i*cols : (i+1)*cols]
}

// String renders small tensors for debugging.
func (t *Of[T]) String() string {
	if len(t.Data) > 64 {
		return fmt.Sprintf("Tensor%v[%d elems]", t.Shape, len(t.Data))
	}
	return fmt.Sprintf("Tensor%v%v", t.Shape, t.Data)
}
