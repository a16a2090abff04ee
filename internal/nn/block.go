package nn

import "fedclust/internal/tensor"

// convBlock is a Conv2D → ReLU → MaxPool2 run of a Sequential's layers,
// LeNet's block, which Forward and Backward take in one pass each
// (DESIGN.md §10). The three layers stay in the layer list and keep their
// parameters; the block keeps nothing of its own. Forward pads and packs
// through the convolution, then computes the pooled output straight from
// the product's tiles (tensor.TransBPanel.ConvPoolInto) into the pool's
// output, and in a training pass the argmax into the pool's: neither the
// convolution's nor ReLU's full-resolution output is written. Backward
// routes the pooled gradient into the pool's input-gradient workspace as
// the convolution's gradOut and runs Conv2D.Backward on it.
type convBlock[T tensor.Float] struct {
	at   int // the convolution's index in the layer list
	conv *Conv2DOf[T]
	pool *MaxPool2[T]
}

// convBlocks finds the blocks of a layer list in order.
func convBlocks[T tensor.Float](layers []Layer[T]) []convBlock[T] {
	var blocks []convBlock[T]
	for i := 0; i+2 < len(layers); i++ {
		c, isConv := layers[i].(*Conv2DOf[T])
		r, isReLU := layers[i+1].(*ReLU[T])
		p, isPool := layers[i+2].(*MaxPool2[T])
		if isConv && isReLU && isPool && r.dim == c.OutDim() &&
			p.C == c.OutC && p.H == c.Geom.OutH() && p.W == c.Geom.OutW() {
			blocks = append(blocks, convBlock[T]{at: i, conv: c, pool: p})
			i += 2
		}
	}
	return blocks
}

// forward is the three layers' Forward in one pass: the pool's output,
// and, when train is set, its argmax.
func (b *convBlock[T]) forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	c, p := b.conv, b.pool
	padded := c.prepare(x)
	out := p.out.get(c.batch, p.OutDim())
	c.packed.ConvPoolInto(out.Data, p.trainArgmax(c.batch, train), padded, c.Geom, c.B.Data)
	return out
}

// backward is the three layers' Backward in one pass. MaxPool2 sends each
// pooled gradient g to its argmax as +0 + g, and ReLU passes it on where
// its output, the pooled value there, is > 0, and +0 elsewhere: so the
// convolution's gradOut is zero but for +0 + g at each argmax whose
// pooled value is > 0.
func (b *convBlock[T]) backward(gradOut *tensor.Of[T]) *tensor.Of[T] {
	p := b.pool
	if p.batch == 0 {
		panic("nn: MaxPool2.Backward called before Forward")
	}
	checkBatchInput(p, " backward", gradOut, p.batch, p.OutDim())
	g := p.gx.get(p.batch, p.InDim())
	g.Zero()
	outDim := p.OutDim()
	pooled := p.out.hdr.Data // the forward's output
	for r := 0; r < p.batch; r++ {
		src, dst := gradOut.Row(r), g.Row(r)
		arg, v := p.argmax[r*outDim:][:len(src)], pooled[r*outDim:][:len(src)]
		for oi, gv := range src {
			dst[arg[oi]] = [2]T{0, 0 + gv}[b2i(v[oi] > 0)]
		}
	}
	return b.conv.Backward(g)
}
