package nn

import (
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// TestConvUnrollBufferIsOneStrip pins what LeNet's two blocks hold.
// Forward and the weight gradient read the padded batch in place, so no
// convolution ever holds the batch-sized im2col matrix or a pixel-major
// copy of its gradient, and each Conv2D → ReLU → MaxPool2 block computes
// its pooled output straight from the product's tiles, so neither the
// convolution's full-resolution output nor ReLU's output or input
// gradient is ever allocated. Forward-only passes (evaluation, IFCA's
// probes) leave every column buffer and every argmax unallocated; so do
// warm LeNet steps at batch 32 and at batch 256 for conv1's column
// buffer, whose input gradient nobody reads. conv2's column buffer holds
// exactly one image's column gradient, OutH·OutW rows, whatever the
// batch; the argmax and the convolution's gradOut hold one training
// batch; and a forward-only pass after the steps leaves them so.
func TestConvUnrollBufferIsOneStrip(t *testing.T) {
	bothTypes(t, testConvUnrollBufferIsOneStrip[float64], testConvUnrollBufferIsOneStrip[float32])
}

func testConvUnrollBufferIsOneStrip[T tensor.Float](t *testing.T) {
	net := netOf[T](t, LeNet5(rng.New(1), 3, 16, 16, 10, 0.5))
	if len(net.blocks) != 2 || !net.blocks[0].conv.noGx || net.blocks[1].conv.noGx {
		t.Fatalf("LeNet-5 has %d blocks, want two, conv1 without an input gradient and conv2 with one", len(net.blocks))
	}
	// never is every full-resolution buffer the blocks must not allocate.
	never := func(stage string) {
		t.Helper()
		for _, b := range net.blocks {
			r := net.Layers[b.at+1].(*ReLU[T])
			if c, o, g := cap(b.conv.out.buf), cap(r.out.buf), cap(r.gx.buf); c+o+g != 0 {
				t.Fatalf("%s, %s: convolution output %d, ReLU output %d and input gradient %d elements, want none",
					stage, b.conv.Name(), c, o, g)
			}
		}
	}
	inputs := map[int]*tensor.Of[T]{}
	for _, batch := range []int{32, 256} {
		inputs[batch] = tensorOf[T](randInput(rng.New(uint64(batch)), batch, 3*16*16))
		net.Forward(inputs[batch], false)
	}
	never("forward-only passes")
	for _, b := range net.blocks {
		if c, a, g := cap(b.conv.cols.buf), cap(b.pool.argmax), cap(b.pool.gx.buf); c+a+g != 0 {
			t.Fatalf("forward-only passes, %s: column buffer %d, argmax %d and gradOut %d elements, want none",
				b.conv.Name(), c, a, g)
		}
	}
	var ce SoftmaxCEOf[T]
	for _, batch := range []int{32, 256} {
		x := inputs[batch]
		labels := make([]int, batch)
		for step := 0; step < 2; step++ {
			zeroGrads(net)
			_, grad, _ := ce.Loss(net.Forward(x, true), labels)
			net.Backward(grad)
		}
		net.Forward(x, false)
		never("training steps")
		for i, b := range net.blocks {
			c := b.conv
			outHW, rowLen := c.Geom.OutH()*c.Geom.OutW(), c.Geom.InC*c.Geom.KH*c.Geom.KW
			bound := outHW * rowLen
			if i == 0 {
				bound = 0
			}
			if got := cap(c.cols.buf); got != bound {
				t.Fatalf("batch %d, %s: column buffer holds %d elements, want %d (the whole unroll is %d)",
					batch, c.Name(), got, bound, batch*outHW*rowLen)
			}
			if a, g := cap(b.pool.argmax), cap(b.pool.gx.buf); a != batch*b.pool.OutDim() || g != batch*c.OutDim() {
				t.Fatalf("batch %d, %s: argmax %d and gradOut %d elements, want %d and %d",
					batch, c.Name(), a, g, batch*b.pool.OutDim(), batch*c.OutDim())
			}
		}
	}
}
