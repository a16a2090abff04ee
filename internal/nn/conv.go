package nn

import (
	"fmt"
	"unsafe"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// Conv2DOf is a 2-D convolution over flattened CHW inputs, computed as
// im2col · Wᵀ without ever holding the im2col matrix. Forward pads the
// batch once and keeps that copy for Backward; both then walk the
// (batch·OutH·OutW) × (InC·KH·KW) unroll in strips of stripRows rows,
// each unrolled into an L1-sized buffer that the products consume before
// the next strip overwrites it: y = strip·Wᵀ in Forward; in Backward the
// weight gradient accumulates gy[strip]ᵀ·strip, then the same buffer
// takes the strip's column gradient gy[strip]·W and col2im scatters it.
// Strips run in order, so every output element is summed in the order of
// the whole-matrix products, bit for bit in both dtypes. All
// intermediates live in persistent per-layer workspaces, so a
// steady-state training step allocates nothing.
type Conv2DOf[T tensor.Float] struct {
	Geom   tensor.ConvGeom
	OutC   int
	W      *tensor.Of[T] // (OutC, InC*KH*KW)
	B      *tensor.Of[T] // (OutC)
	gw, gb *tensor.Of[T]
	batch  int
	noGx   bool // input gradient unread: Backward returns nil

	padded ws[T]                 // (batch, PaddedLen) zero-padded input, kept for Backward
	strip  ws[T]                 // ≤ stripRows unrolled rows; a strip's column gradient in Backward
	packed tensor.TransBPanel[T] // W laid out for the forward product, once per Forward
	rows   rowView[T]            // the current strip's rows of mm
	mm     ws[T]                 // pixel-major matmul output y in Forward, de-interleaved gy in Backward
	out    ws[T]                 // channel-major forward output (batch, OutC*outHW)
	gwTmp  ws[T]                 // per-call weight gradient, accumulated into gw
	gx     ws[T]                 // input gradient (batch, InC*InH*InW)
}

// stripBytes bounds one strip of the unrolled input: half of a 32 KB L1
// data cache, so the strip, its rows of y or gy and W's packed panel stay
// there together. A constant like tensor's transBPanelK, not an option.
const stripBytes = 16 << 10

// stripRows is how many unrolled rows of rowLen elements a strip holds:
// as many as fit in stripBytes, rounded down to a multiple of four so the
// forward product runs whole four-row tiles, and at least four.
func stripRows[T tensor.Float](rowLen int) int {
	return max(4, stripBytes/(rowLen*int(unsafe.Sizeof(T(0))))&^3)
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
	tensor.PadInto(x.Data, c.Geom, c.padded.get(batch, c.Geom.PaddedLen()).Data)
	c.packed.Pack(c.W)
	// y = unroll · Wᵀ (batch*outHW, OutC), one strip at a time.
	y := c.mm.get(batch*outHW, c.OutC)
	for r0, s := 0, stripRows[T](rowLen); r0 < y.Shape[0]; r0 += s {
		r1 := min(r0+s, y.Shape[0])
		c.packed.MulInto(c.rows.of(y, r0, r1), c.unroll(r0, r1))
	}
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

// unroll writes rows [r0, r1) of the batch's unrolled input into the
// strip buffer, from the padded copy Forward made.
func (c *Conv2DOf[T]) unroll(r0, r1 int) *tensor.Of[T] {
	strip := c.strip.get(r1-r0, c.Geom.InC*c.Geom.KH*c.Geom.KW)
	tensor.Im2ColRowsInto(c.padded.hdr.Data, c.Geom, r0, strip.Data)
	return strip
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
	// gW += gyᵀ·unroll (OutC, rowLen) and, unless unread, gx = col2im(gy·W),
	// one strip at a time: re-unroll the strip, accumulate its share of
	// the weight gradient, then overwrite it with its column gradient and
	// scatter that.
	gw := c.gwTmp.get(c.OutC, rowLen)
	gw.Zero()
	var gx *tensor.Of[T]
	if !c.noGx {
		gx = c.gx.get(batch, c.InDim())
		gx.Zero()
	}
	for r0, s := 0, stripRows[T](rowLen); r0 < gy.Shape[0]; r0 += s {
		r1 := min(r0+s, gy.Shape[0])
		strip, g := c.unroll(r0, r1), c.rows.of(gy, r0, r1)
		tensor.MatMulTransAAddInto(gw, g, strip)
		if gx != nil {
			tensor.MatMulInto(strip, g, c.W)
			tensor.Col2ImRowsInto(strip.Data, c.Geom, r0, gx.Data)
		}
	}
	c.gw.AddScaled(gw, 1)
	// gB += column sums of gy.
	for i := 0; i < gy.Shape[0]; i++ {
		row := gy.Row(i)
		for ch, v := range row {
			c.gb.Data[ch] += v
		}
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
