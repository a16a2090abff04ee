package nn

import (
	"fmt"
	"math"

	"fedclust/internal/tensor"
)

// AvgPool2 is a 2×2, stride-2 average pooling layer over CHW volumes —
// the subsampling LeCun's original LeNet-5 used (modern variants use max
// pooling; both are provided).
type AvgPool2[T tensor.Float] struct {
	C, H, W int
	batch   int
	out, gx ws[T]
}

// NewAvgPool2 builds the layer for the given input volume (even H, W).
func NewAvgPool2(c, h, w int) *AvgPool2[float64] {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("nn: AvgPool2 invalid volume %dx%dx%d", c, h, w))
	}
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("nn: AvgPool2 requires even H and W, got %dx%d", h, w))
	}
	return &AvgPool2[float64]{C: c, H: h, W: w}
}

// Name implements Layer.
func (p *AvgPool2[T]) Name() string { return fmt.Sprintf("avgpool2(%dx%dx%d)", p.C, p.H, p.W) }

// InDim returns the flattened input width.
func (p *AvgPool2[T]) InDim() int { return p.C * p.H * p.W }

// OutDim implements Layer.
func (p *AvgPool2[T]) OutDim() int { return p.C * (p.H / 2) * (p.W / 2) }

// Forward implements Layer.
func (p *AvgPool2[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	checkBatchInput(p, "", x, anyBatch, p.InDim())
	batch := x.Shape[0]
	p.batch = batch
	oh, ow := p.H/2, p.W/2
	out := p.out.get(batch, p.OutDim())
	for b := 0; b < batch; b++ {
		in := x.Row(b)
		dst := out.Row(b)
		for c := 0; c < p.C; c++ {
			inBase := c * p.H * p.W
			outBase := c * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					i00 := inBase + (2*oy)*p.W + 2*ox
					dst[outBase+oy*ow+ox] = 0.25 * (in[i00] + in[i00+1] + in[i00+p.W] + in[i00+p.W+1])
				}
			}
		}
	}
	return out
}

// Backward implements Layer: spreads each gradient equally over its 2×2
// window.
func (p *AvgPool2[T]) Backward(gradOut *tensor.Of[T]) *tensor.Of[T] {
	if p.batch == 0 {
		panic("nn: AvgPool2.Backward called before Forward")
	}
	checkBatchInput(p, " backward", gradOut, p.batch, p.OutDim())
	oh, ow := p.H/2, p.W/2
	gx := p.gx.get(p.batch, p.InDim())
	gx.Zero()
	for b := 0; b < p.batch; b++ {
		src := gradOut.Row(b)
		dst := gx.Row(b)
		for c := 0; c < p.C; c++ {
			inBase := c * p.H * p.W
			outBase := c * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := 0.25 * src[outBase+oy*ow+ox]
					i00 := inBase + (2*oy)*p.W + 2*ox
					dst[i00] += g
					dst[i00+1] += g
					dst[i00+p.W] += g
					dst[i00+p.W+1] += g
				}
			}
		}
	}
	return gx
}

// Params implements Layer (none).
func (p *AvgPool2[T]) Params() []*tensor.Of[T] { return nil }

// Grads implements Layer (none).
func (p *AvgPool2[T]) Grads() []*tensor.Of[T] { return nil }

// Sigmoid is the logistic activation, applied elementwise. The
// exponential is evaluated in float64 and rounded once to T.
type Sigmoid[T tensor.Float] struct {
	dim     int
	y       *tensor.Of[T]
	out, gx ws[T]
}

// NewSigmoid builds a Sigmoid over dim features.
func NewSigmoid(dim int) *Sigmoid[float64] { return &Sigmoid[float64]{dim: dim} }

// Name implements Layer.
func (s *Sigmoid[T]) Name() string { return fmt.Sprintf("sigmoid(%d)", s.dim) }

// OutDim implements Layer.
func (s *Sigmoid[T]) OutDim() int { return s.dim }

// Forward implements Layer.
func (s *Sigmoid[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	checkBatchInput(s, "", x, anyBatch, s.dim)
	out := s.out.get(x.Shape[0], x.Shape[1])
	for i, v := range x.Data {
		out.Data[i] = T(1 / (1 + math.Exp(float64(-v))))
	}
	s.y = out
	return out
}

// Backward implements Layer: dσ = σ(1-σ).
func (s *Sigmoid[T]) Backward(gradOut *tensor.Of[T]) *tensor.Of[T] {
	if s.y == nil {
		panic("nn: Sigmoid.Backward called before Forward")
	}
	checkBatchInput(s, " backward", gradOut, s.y.Shape[0], s.dim)
	gx := s.gx.get(gradOut.Shape[0], gradOut.Shape[1])
	for i, v := range gradOut.Data {
		y := s.y.Data[i]
		gx.Data[i] = v * y * (1 - y)
	}
	return gx
}

// Params implements Layer (none).
func (s *Sigmoid[T]) Params() []*tensor.Of[T] { return nil }

// Grads implements Layer (none).
func (s *Sigmoid[T]) Grads() []*tensor.Of[T] { return nil }
