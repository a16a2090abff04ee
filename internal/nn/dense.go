package nn

import (
	"fmt"

	"fedclust/internal/tensor"
)

// DenseOf is a fully connected layer: y = x·Wᵀ + b. Forward and Backward
// write into persistent per-layer workspaces (out, gx) and Backward adds
// the weight gradient straight into gw, so a steady-state training step
// allocates nothing; returned tensors are valid only until the layer's
// next Forward/Backward call.
type DenseOf[T tensor.Float] struct {
	In, Out int
	W       *tensor.Of[T] // (Out, In)
	B       *tensor.Of[T] // (Out)
	gw, gb  *tensor.Of[T]
	x       *tensor.Of[T] // cached input for backward
	noGx    bool          // input gradient unread: Backward returns nil

	out ws[T] // forward output (batch, Out)
	gx  ws[T] // input gradient (batch, In)
}

// Dense is the float64 fully connected layer.
type Dense = DenseOf[float64]

// newDense constructs a dense layer that carries its shapes only: the
// Sequential it joins gives its tensors their storage.
func newDense[T tensor.Float](in, out int) *DenseOf[T] {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: Dense dims must be positive, got %d→%d", in, out))
	}
	return &DenseOf[T]{
		In: in, Out: out,
		W:  &tensor.Of[T]{Shape: []int{out, in}},
		B:  &tensor.Of[T]{Shape: []int{out}},
		gw: &tensor.Of[T]{Shape: []int{out, in}},
		gb: &tensor.Of[T]{Shape: []int{out}},
	}
}

// NewDense constructs a float64 Dense layer for NewSequential to store.
func NewDense(in, out int) *Dense { return newDense[float64](in, out) }

// Name implements Layer.
func (d *DenseOf[T]) Name() string { return fmt.Sprintf("dense(%d→%d)", d.In, d.Out) }

// OutDim implements Layer.
func (d *DenseOf[T]) OutDim() int { return d.Out }

func (d *DenseOf[T]) skipInputGrad() { d.noGx = true }

// Forward implements Layer: y = x·Wᵀ + b over the batch, reading W in
// place via the transposed-operand kernel.
func (d *DenseOf[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	checkBatchInput(d, "", x, anyBatch, d.In)
	d.x = x
	batch := x.Shape[0]
	y := d.out.get(batch, d.Out)
	tensor.MatMulTransBInto(y, x, d.W)
	bias := d.B.Data[:d.Out]
	for i := 0; i < batch; i++ {
		row := y.Data[i*len(bias):][:len(bias)]
		for j, v := range bias {
			row[j] += v
		}
	}
	return y
}

// Backward implements Layer.
func (d *DenseOf[T]) Backward(gradOut *tensor.Of[T]) *tensor.Of[T] {
	if d.x == nil {
		panic("nn: Dense.Backward called before Forward")
	}
	checkBatchInput(d, " backward", gradOut, d.x.Shape[0], d.Out)
	// gW += gyᵀ·x ; gb += column sums of gy ; gx = gy·W
	tensor.MatMulTransAAddInto(d.gw, gradOut, d.x)
	batch := gradOut.Shape[0]
	gb := d.gb.Data[:d.Out]
	for i := 0; i < batch; i++ {
		row := gradOut.Data[i*len(gb):][:len(gb)]
		for j, v := range row {
			gb[j] += v
		}
	}
	if d.noGx {
		return nil
	}
	gx := d.gx.get(batch, d.In)
	tensor.MatMulInto(gx, gradOut, d.W)
	return gx
}

// Params implements Layer.
func (d *DenseOf[T]) Params() []*tensor.Of[T] { return []*tensor.Of[T]{d.W, d.B} }

// Grads implements Layer.
func (d *DenseOf[T]) Grads() []*tensor.Of[T] { return []*tensor.Of[T]{d.gw, d.gb} }
