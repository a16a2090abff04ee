package nn

import (
	"fmt"

	"fedclust/internal/tensor"
)

// Conv2DOf is a 2-D convolution over flattened CHW inputs, computed as
// im2col · Wᵀ without ever holding the im2col matrix. Forward pads the
// batch once and keeps that copy for Backward. Forward's product reads
// the unroll of the (batch·OutH·OutW) × (InC·KH·KW) matrix in place in the
// padded copy (tensor.TransBPanel.ConvInto) and stores the channel-major
// output, bias added, directly. Backward reads the same unroll in place
// for the weight gradient (tensor.ConvWeightGrad), its coefficients
// straight from the channel-major gradOut; the bias gradient sums each
// channel's row of gradOut; and, unless unread, the input gradient takes
// each image's column gradient into a buffer of one image's unroll rows
// for col2im to scatter (tensor.ConvInputGradInto). Every output element
// is summed in the order of the whole-matrix products, bit for bit in
// both dtypes. All intermediates live in persistent per-layer workspaces,
// so a steady-state training step allocates nothing, and only a layer
// whose input gradient is read ever holds a column buffer.
type Conv2DOf[T tensor.Float] struct {
	Geom   tensor.ConvGeom
	OutC   int
	W      *tensor.Of[T] // (OutC, InC*KH*KW)
	B      *tensor.Of[T] // (OutC)
	gw, gb *tensor.Of[T]
	batch  int
	noGx   bool // input gradient unread: Backward returns nil

	padded ws[T]                    // (batch, PaddedLen) zero-padded input, kept for Backward
	packed tensor.TransBPanel[T]    // W laid out for the forward product, once per Forward
	wgrad  tensor.ConvWeightGrad[T] // Backward's offset tables for the weight gradient
	out    ws[T]                    // channel-major forward output (batch, OutC*outHW)
	cols   ws[T]                    // Backward: one image's column gradient (outHW, InC*KH*KW)
	gx     ws[T]                    // input gradient (batch, InC*InH*InW)
}

// Conv2D is the float64 convolution.
type Conv2D = Conv2DOf[float64]

// newConv2D constructs a convolution that carries its shapes only: the
// Sequential it joins gives its tensors their storage.
func newConv2D[T tensor.Float](g tensor.ConvGeom, outC int) *Conv2DOf[T] {
	g.Validate()
	if outC <= 0 {
		panic(fmt.Sprintf("nn: Conv2D outC must be positive, got %d", outC))
	}
	rowLen := g.InC * g.KH * g.KW
	return &Conv2DOf[T]{
		Geom: g, OutC: outC,
		W:  &tensor.Of[T]{Shape: []int{outC, rowLen}},
		B:  &tensor.Of[T]{Shape: []int{outC}},
		gw: &tensor.Of[T]{Shape: []int{outC, rowLen}},
		gb: &tensor.Of[T]{Shape: []int{outC}},
	}
}

// NewConv2D constructs a float64 convolution for NewSequential to store.
func NewConv2D(g tensor.ConvGeom, outC int) *Conv2D { return newConv2D[float64](g, outC) }

// Name implements Layer.
func (c *Conv2DOf[T]) Name() string {
	return fmt.Sprintf("conv%dx%d(%d→%d)", c.Geom.KH, c.Geom.KW, c.Geom.InC, c.OutC)
}

// InDim returns the expected flattened input width.
func (c *Conv2DOf[T]) InDim() int { return c.Geom.InC * c.Geom.InH * c.Geom.InW }

// OutDim implements Layer: OutC × OutH × OutW.
func (c *Conv2DOf[T]) OutDim() int { return c.OutC * c.Geom.OutH() * c.Geom.OutW() }

func (c *Conv2DOf[T]) skipInputGrad() { c.noGx = true }

// Forward implements Layer. The output feature axis is channel-major CHW.
func (c *Conv2DOf[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	checkBatchInput(c, "", x, anyBatch, c.InDim())
	batch := x.Shape[0]
	c.batch = batch
	padded := c.padded.get(batch, c.Geom.PaddedLen()).Data
	tensor.PadInto(x.Data, c.Geom, padded)
	c.packed.Pack(c.W)
	out := c.out.get(batch, c.OutDim())
	c.packed.ConvInto(out.Data, padded, c.Geom, c.B.Data)
	return out
}

// Backward implements Layer.
func (c *Conv2DOf[T]) Backward(gradOut *tensor.Of[T]) *tensor.Of[T] {
	if c.batch == 0 {
		panic("nn: Conv2D.Backward called before Forward")
	}
	checkBatchInput(c, " backward", gradOut, c.batch, c.OutDim())
	c.wgrad.AddInto(c.gw, c.padded.hdr.Data, gradOut.Data, c.Geom)
	// gB += each channel's row of gradOut, (image, pixel) ascending.
	outHW := c.Geom.OutH() * c.Geom.OutW()
	for b := 0; b < c.batch; b++ {
		row := gradOut.Row(b)
		for ch := range c.gb.Data {
			s := c.gb.Data[ch]
			for _, v := range row[ch*outHW:][:outHW] {
				s += v
			}
			c.gb.Data[ch] = s
		}
	}
	if c.noGx {
		return nil
	}
	gx := c.gx.get(c.batch, c.InDim())
	cols := c.cols.get(outHW, c.Geom.InC*c.Geom.KH*c.Geom.KW)
	tensor.ConvInputGradInto(gx.Data, cols.Data, gradOut.Data, c.W, c.Geom)
	return gx
}

// Params implements Layer.
func (c *Conv2DOf[T]) Params() []*tensor.Of[T] { return []*tensor.Of[T]{c.W, c.B} }

// Grads implements Layer.
func (c *Conv2DOf[T]) Grads() []*tensor.Of[T] { return []*tensor.Of[T]{c.gw, c.gb} }

// MaxPool2 is a 2×2, stride-2 max pooling layer over CHW volumes.
type MaxPool2[T tensor.Float] struct {
	C, H, W int
	argmax  []int // flat input index of each output element's max
	batch   int
	out, gx ws[T]
}

// NewMaxPool2 builds the layer for the given input volume. H and W must be
// even (the models in this repo arrange that).
func NewMaxPool2(c, h, w int) *MaxPool2[float64] {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("nn: MaxPool2 invalid volume %dx%dx%d", c, h, w))
	}
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("nn: MaxPool2 requires even H and W, got %dx%d", h, w))
	}
	return &MaxPool2[float64]{C: c, H: h, W: w}
}

// Name implements Layer.
func (p *MaxPool2[T]) Name() string { return fmt.Sprintf("maxpool2(%dx%dx%d)", p.C, p.H, p.W) }

// InDim returns the flattened input width.
func (p *MaxPool2[T]) InDim() int { return p.C * p.H * p.W }

// OutDim implements Layer.
func (p *MaxPool2[T]) OutDim() int { return p.C * (p.H / 2) * (p.W / 2) }

// Forward implements Layer.
func (p *MaxPool2[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	checkBatchInput(p, "", x, anyBatch, p.InDim())
	batch := x.Shape[0]
	p.batch = batch
	oh, ow := p.H/2, p.W/2
	outDim := p.OutDim()
	out := p.out.get(batch, outDim)
	p.argmax = growInts(p.argmax, batch*outDim)
	for b := 0; b < batch; b++ {
		in := x.Row(b)
		dst := out.Row(b)
		argmax := p.argmax[b*outDim:][:outDim]
		for c := 0; c < p.C; c++ {
			inBase := c * p.H * p.W
			outBase := c * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					i00 := inBase + (2*oy)*p.W + 2*ox
					i01 := i00 + 1
					i10 := i00 + p.W
					i11 := i10 + 1
					// Move bi to a strictly greater element, by index
					// arithmetic rather than a jump: ties keep the first.
					bi := i00
					bi += (i01 - bi) * b2i(in[i01] > in[bi])
					bi += (i10 - bi) * b2i(in[i10] > in[bi])
					bi += (i11 - bi) * b2i(in[i11] > in[bi])
					oi := outBase + oy*ow + ox
					dst[oi] = in[bi]
					argmax[oi] = bi
				}
			}
		}
	}
	return out
}

// Backward implements Layer: routes each gradient to its argmax position.
func (p *MaxPool2[T]) Backward(gradOut *tensor.Of[T]) *tensor.Of[T] {
	if p.argmax == nil {
		panic("nn: MaxPool2.Backward called before Forward")
	}
	checkBatchInput(p, " backward", gradOut, p.batch, p.OutDim())
	gx := p.gx.get(p.batch, p.InDim())
	gx.Zero()
	outDim := p.OutDim()
	for b := 0; b < p.batch; b++ {
		src := gradOut.Row(b)
		dst := gx.Row(b)
		argmax := p.argmax[b*outDim:][:len(src)]
		for oi, v := range src {
			dst[argmax[oi]] += v
		}
	}
	return gx
}

// Params implements Layer (none).
func (p *MaxPool2[T]) Params() []*tensor.Of[T] { return nil }

// Grads implements Layer (none).
func (p *MaxPool2[T]) Grads() []*tensor.Of[T] { return nil }
