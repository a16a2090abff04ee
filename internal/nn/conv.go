package nn

import (
	"fmt"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// Conv2DOf is a 2-D convolution over flattened CHW inputs, implemented as a
// batched im2col + one large parallel matrix multiply. All intermediate
// matrices live in persistent per-layer workspaces, so a steady-state
// training step allocates nothing. Backward reuses the im2col workspace
// for the column gradient, which means Backward may be called at most
// once per Forward (the Layer contract already requires the matching
// Forward cache).
type Conv2DOf[T tensor.Float] struct {
	Geom   tensor.ConvGeom
	OutC   int
	W      *tensor.Of[T] // (OutC, InC*KH*KW)
	B      *tensor.Of[T] // (OutC)
	gw, gb *tensor.Of[T]
	batch  int
	noGx   bool // input gradient unread: Backward returns nil

	cols  ws[T] // (batch*outHW, rowLen) unrolled input; reused as gcols in Backward
	mm    ws[T] // pixel-major matmul output y in Forward, de-interleaved gy in Backward
	out   ws[T] // channel-major forward output (batch, OutC*outHW)
	gwTmp ws[T] // per-call weight gradient, accumulated into gw
	gx    ws[T] // input gradient (batch, InC*InH*InW)
}

// Conv2D is the float64 convolution.
type Conv2D = Conv2DOf[float64]

// newConv2D constructs a zero-weight convolution.
func newConv2D[T tensor.Float](g tensor.ConvGeom, outC int) *Conv2DOf[T] {
	g.Validate()
	if outC <= 0 {
		panic(fmt.Sprintf("nn: Conv2D outC must be positive, got %d", outC))
	}
	rowLen := g.InC * g.KH * g.KW
	return &Conv2DOf[T]{
		Geom: g, OutC: outC,
		W:  tensor.NewOf[T](outC, rowLen),
		B:  tensor.NewOf[T](outC),
		gw: tensor.NewOf[T](outC, rowLen),
		gb: tensor.NewOf[T](outC),
	}
}

// NewConv2D constructs a convolution with He initialization.
func NewConv2D(g tensor.ConvGeom, outC int, r *rng.Rng) *Conv2D {
	c := newConv2D[float64](g, outC)
	HeInit(c.W, g.InC*g.KH*g.KW, r)
	return c
}

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
	outHW := c.Geom.OutH() * c.Geom.OutW()
	rowLen := c.Geom.InC * c.Geom.KH * c.Geom.KW
	// Unroll the whole batch into one tall matrix so a single parallel
	// matmul does all the arithmetic.
	cols := c.cols.get(batch*outHW, rowLen)
	for b := 0; b < batch; b++ {
		tensor.Im2ColInto(x.Row(b), c.Geom, cols.Data[b*outHW*rowLen:(b+1)*outHW*rowLen])
	}
	// (batch*outHW, rowLen) · (OutC, rowLen)ᵀ → (batch*outHW, OutC)
	y := c.mm.get(batch*outHW, c.OutC)
	tensor.MatMulTransBInto(y, cols, c.W)
	// Reorder to channel-major (batch, OutC*outHW) and add bias.
	out := c.out.get(batch, c.OutC*outHW)
	for b := 0; b < batch; b++ {
		dst := out.Row(b)
		for p := 0; p < outHW; p++ {
			src := y.Row(b*outHW + p)
			for ch := 0; ch < c.OutC; ch++ {
				dst[ch*outHW+p] = src[ch] + c.B.Data[ch]
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2DOf[T]) Backward(gradOut *tensor.Of[T]) *tensor.Of[T] {
	if c.batch == 0 {
		panic("nn: Conv2D.Backward called before Forward")
	}
	checkBatchInput(c, " backward", gradOut, c.batch, c.OutDim())
	batch := c.batch
	outHW := c.Geom.OutH() * c.Geom.OutW()
	rowLen := c.Geom.InC * c.Geom.KH * c.Geom.KW
	cols := c.cols.get(batch*outHW, rowLen) // forward's unrolled input
	// De-interleave gradOut back to pixel-major (batch*outHW, OutC).
	gy := c.mm.get(batch*outHW, c.OutC)
	for b := 0; b < batch; b++ {
		src := gradOut.Row(b)
		for p := 0; p < outHW; p++ {
			dst := gy.Row(b*outHW + p)
			for ch := 0; ch < c.OutC; ch++ {
				dst[ch] = src[ch*outHW+p]
			}
		}
	}
	// gW += gyᵀ·cols (OutC, rowLen); gB += column sums of gy.
	gw := c.gwTmp.get(c.OutC, rowLen)
	tensor.MatMulTransAInto(gw, gy, cols)
	c.gw.AddScaled(gw, 1)
	for i := 0; i < gy.Shape[0]; i++ {
		row := gy.Row(i)
		for ch, v := range row {
			c.gb.Data[ch] += v
		}
	}
	if c.noGx {
		return nil
	}
	// gcols = gy·W (batch*outHW, rowLen), overwriting the cols workspace
	// (the unrolled input is no longer needed once gw is accumulated);
	// scatter back with col2im.
	tensor.MatMulInto(cols, gy, c.W)
	gx := c.gx.get(batch, c.InDim())
	gx.Zero()
	for b := 0; b < batch; b++ {
		tensor.Col2ImInto(cols.Data[b*outHW*rowLen:(b+1)*outHW*rowLen], c.Geom, gx.Row(b))
	}
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
					bi, bv := i00, in[i00]
					if in[i01] > bv {
						bi, bv = i01, in[i01]
					}
					if in[i10] > bv {
						bi, bv = i10, in[i10]
					}
					if in[i11] > bv {
						bi, bv = i11, in[i11]
					}
					oi := outBase + oy*ow + ox
					dst[oi] = bv
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
	for b := 0; b < p.batch; b++ {
		src := gradOut.Row(b)
		dst := gx.Row(b)
		for oi, v := range src {
			dst[p.argmax[b*p.OutDim()+oi]] += v
		}
	}
	return gx
}

// Params implements Layer (none).
func (p *MaxPool2[T]) Params() []*tensor.Of[T] { return nil }

// Grads implements Layer (none).
func (p *MaxPool2[T]) Grads() []*tensor.Of[T] { return nil }
