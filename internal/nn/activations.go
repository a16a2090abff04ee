package nn

import (
	"fmt"

	"fedclust/internal/tensor"
)

// ReLU is the rectified linear activation, applied elementwise.
type ReLU[T tensor.Float] struct {
	dim     int
	mask    []bool
	batch   int
	out, gx ws[T]
}

// NewReLU builds a ReLU over dim features.
func NewReLU(dim int) *ReLU[float64] { return &ReLU[float64]{dim: dim} }

// Name implements Layer.
func (r *ReLU[T]) Name() string { return fmt.Sprintf("relu(%d)", r.dim) }

// OutDim implements Layer.
func (r *ReLU[T]) OutDim() int { return r.dim }

// Forward implements Layer.
func (r *ReLU[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	checkBatchInput(r, "", x, anyBatch, r.dim)
	r.batch = x.Shape[0]
	out := r.out.get(x.Shape[0], x.Shape[1])
	r.mask = growBools(r.mask, len(x.Data))
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
			r.mask[i] = true
		} else {
			out.Data[i] = 0
			r.mask[i] = false
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU[T]) Backward(gradOut *tensor.Of[T]) *tensor.Of[T] {
	if r.mask == nil {
		panic("nn: ReLU.Backward called before Forward")
	}
	checkBatchInput(r, " backward", gradOut, r.batch, r.dim)
	gx := r.gx.get(gradOut.Shape[0], gradOut.Shape[1])
	for i, v := range gradOut.Data {
		if r.mask[i] {
			gx.Data[i] = v
		} else {
			gx.Data[i] = 0
		}
	}
	return gx
}

// Params implements Layer (none).
func (r *ReLU[T]) Params() []*tensor.Of[T] { return nil }

// Grads implements Layer (none).
func (r *ReLU[T]) Grads() []*tensor.Of[T] { return nil }
