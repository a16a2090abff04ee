package nn

import (
	"fmt"
	"math"

	"fedclust/internal/rng"
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

// Tanh is the hyperbolic tangent activation (LeNet-5's classic
// nonlinearity), applied elementwise. The transcendental is evaluated in
// float64 and rounded once to T.
type Tanh[T tensor.Float] struct {
	dim     int
	y       *tensor.Of[T]
	out, gx ws[T]
}

// NewTanh builds a Tanh over dim features.
func NewTanh(dim int) *Tanh[float64] { return &Tanh[float64]{dim: dim} }

// Name implements Layer.
func (t *Tanh[T]) Name() string { return fmt.Sprintf("tanh(%d)", t.dim) }

// OutDim implements Layer.
func (t *Tanh[T]) OutDim() int { return t.dim }

// Forward implements Layer.
func (t *Tanh[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	checkBatchInput(t, "", x, anyBatch, t.dim)
	out := t.out.get(x.Shape[0], x.Shape[1])
	for i, v := range x.Data {
		out.Data[i] = T(math.Tanh(float64(v)))
	}
	t.y = out
	return out
}

// Backward implements Layer: d tanh = 1 - tanh².
func (t *Tanh[T]) Backward(gradOut *tensor.Of[T]) *tensor.Of[T] {
	if t.y == nil {
		panic("nn: Tanh.Backward called before Forward")
	}
	checkBatchInput(t, " backward", gradOut, t.y.Shape[0], t.dim)
	gx := t.gx.get(gradOut.Shape[0], gradOut.Shape[1])
	for i, v := range gradOut.Data {
		y := t.y.Data[i]
		gx.Data[i] = v * (1 - y*y)
	}
	return gx
}

// Params implements Layer (none).
func (t *Tanh[T]) Params() []*tensor.Of[T] { return nil }

// Grads implements Layer (none).
func (t *Tanh[T]) Grads() []*tensor.Of[T] { return nil }

// Dropout zeroes activations with probability P during training and
// rescales the survivors by 1/(1-P) (inverted dropout); it is the identity
// at evaluation time.
//
// Dropout implements StepSeeded: its mask stream should be rebased from
// the training step's RNG (fl local training does this through
// Sequential.SeedStep), so its behaviour depends only on the (client,
// round) stream, not on how many times the model instance was used
// before — the property pooled model reuse relies on (DESIGN.md §5,
// model-pool invariant 3). The constructor stream is only a fallback for
// standalone use. The keep decision consumes one r.Float64() draw per
// element whatever T is, so a float32 shadow sees the masks of the
// float64 network it mirrors.
type Dropout[T tensor.Float] struct {
	dim     int
	P       float64
	rng     *rng.Rng
	mask    []bool
	batch   int
	active  bool // true when the last Forward was a training pass
	out, gx ws[T]
}

// NewDropout builds a Dropout layer with drop probability p in [0, 1).
func NewDropout(dim int, p float64, r *rng.Rng) *Dropout[float64] {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: Dropout probability %v out of [0,1)", p))
	}
	return &Dropout[float64]{dim: dim, P: p, rng: r}
}

// Name implements Layer.
func (d *Dropout[T]) Name() string { return fmt.Sprintf("dropout(%.2f)", d.P) }

// OutDim implements Layer.
func (d *Dropout[T]) OutDim() int { return d.dim }

// SeedStep implements StepSeeded: subsequent masks are drawn from r.
func (d *Dropout[T]) SeedStep(r *rng.Rng) { d.rng = r }

// Forward implements Layer.
func (d *Dropout[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	checkBatchInput(d, "", x, anyBatch, d.dim)
	if !train || d.P == 0 {
		d.active = false
		return x
	}
	out := d.out.get(x.Shape[0], x.Shape[1])
	d.mask = growBools(d.mask, len(x.Data))
	d.batch = x.Shape[0]
	d.active = true
	scale := T(1 / (1 - d.P))
	for i, v := range x.Data {
		if d.rng.Float64() >= d.P {
			d.mask[i] = true
			out.Data[i] = v * scale
		} else {
			d.mask[i] = false
			out.Data[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout[T]) Backward(gradOut *tensor.Of[T]) *tensor.Of[T] {
	if !d.active {
		return gradOut // eval-mode identity
	}
	checkBatchInput(d, " backward", gradOut, d.batch, d.dim)
	gx := d.gx.get(gradOut.Shape[0], gradOut.Shape[1])
	scale := T(1 / (1 - d.P))
	for i, v := range gradOut.Data {
		if d.mask[i] {
			gx.Data[i] = v * scale
		} else {
			gx.Data[i] = 0
		}
	}
	return gx
}

// Params implements Layer (none).
func (d *Dropout[T]) Params() []*tensor.Of[T] { return nil }

// Grads implements Layer (none).
func (d *Dropout[T]) Grads() []*tensor.Of[T] { return nil }
