package nn

import (
	"fmt"

	"fedclust/internal/tensor"
)

// ReLU is the rectified linear activation, applied elementwise. Both
// passes select by a 0/1 index, never a jump on the sign (DESIGN.md §10),
// and Backward reads Forward's output, which is > 0 exactly where x is.
type ReLU[T tensor.Float] struct {
	dim     int
	batch   int
	out, gx ws[T]
}

// NewReLU builds a ReLU over dim features.
func NewReLU(dim int) *ReLU[float64] { return &ReLU[float64]{dim: dim} }

// Name implements Layer.
func (r *ReLU[T]) Name() string { return fmt.Sprintf("relu(%d)", r.dim) }

// OutDim implements Layer.
func (r *ReLU[T]) OutDim() int { return r.dim }

// Forward implements Layer: v if v > 0, else +0 (also for −0 and NaN).
func (r *ReLU[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	checkBatchInput(r, "", x, anyBatch, r.dim)
	r.batch = x.Shape[0]
	out := r.out.get(x.Shape[0], x.Shape[1])
	dst := out.Data[:len(x.Data)]
	for i, v := range x.Data {
		dst[i] = [2]T{0, v}[b2i(v > 0)]
	}
	return out
}

// Backward implements Layer: g where Forward's output is > 0, else +0.
func (r *ReLU[T]) Backward(gradOut *tensor.Of[T]) *tensor.Of[T] {
	if r.batch == 0 {
		panic("nn: ReLU.Backward called before Forward")
	}
	checkBatchInput(r, " backward", gradOut, r.batch, r.dim)
	out := r.out.get(r.batch, r.dim).Data // Forward's result
	gx := r.gx.get(r.batch, r.dim)
	g, dst := gradOut.Data[:len(out)], gx.Data[:len(out)]
	for i, v := range out {
		dst[i] = [2]T{0, g[i]}[b2i(v > 0)]
	}
	return gx
}

// Params implements Layer (none).
func (r *ReLU[T]) Params() []*tensor.Of[T] { return nil }

// Grads implements Layer (none).
func (r *ReLU[T]) Grads() []*tensor.Of[T] { return nil }

// b2i is 1 for true, 0 for false; inlined, it compiles to a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
