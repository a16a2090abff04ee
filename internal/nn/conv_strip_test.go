package nn

import (
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// TestConvUnrollBufferIsOneStrip pins the memory win. Forward and the
// weight gradient read the padded batch in place, so no convolution ever
// holds the batch-sized im2col matrix or a pixel-major copy of its
// gradient. Forward-only passes (evaluation, IFCA's probes) leave every
// column buffer unallocated; so do warm LeNet steps at batch 32 and at
// batch 256 for conv1, whose input gradient nobody reads. conv2's column
// buffer holds exactly one image's column gradient, OutH·OutW rows,
// whatever the batch, and a forward-only pass after the steps leaves it
// so.
func TestConvUnrollBufferIsOneStrip(t *testing.T) {
	bothTypes(t, testConvUnrollBufferIsOneStrip[float64], testConvUnrollBufferIsOneStrip[float32])
}

func testConvUnrollBufferIsOneStrip[T tensor.Float](t *testing.T) {
	net := netOf[T](t, LeNet5(rng.New(1), 3, 16, 16, 10, 0.5))
	var convs []*Conv2DOf[T]
	for _, l := range net.Layers {
		if c, ok := l.(*Conv2DOf[T]); ok {
			convs = append(convs, c)
		}
	}
	if len(convs) != 2 || !convs[0].noGx || convs[1].noGx {
		t.Fatalf("LeNet-5 has %d convolutions, want conv1 without an input gradient and conv2 with one", len(convs))
	}
	inputs := map[int]*tensor.Of[T]{}
	for _, batch := range []int{32, 256} {
		inputs[batch] = tensorOf[T](randInput(rng.New(uint64(batch)), batch, 3*16*16))
		net.Forward(inputs[batch], false)
	}
	for _, c := range convs {
		if got := cap(c.cols.buf); got != 0 {
			t.Fatalf("forward-only passes, %s: column buffer holds %d elements, want none", c.Name(), got)
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
		for i, c := range convs {
			outHW, rowLen := c.Geom.OutH()*c.Geom.OutW(), c.Geom.InC*c.Geom.KH*c.Geom.KW
			bound := outHW * rowLen
			if i == 0 {
				bound = 0
			}
			if got := cap(c.cols.buf); got != bound {
				t.Fatalf("batch %d, %s: column buffer holds %d elements, want %d (the whole unroll is %d)",
					batch, c.Name(), got, bound, batch*outHW*rowLen)
			}
		}
	}
}
