package nn

import (
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// TestConvUnrollBufferIsOneStrip pins the memory win. Forward reads the
// padded batch in place, so forward-only passes (evaluation, IFCA's
// probes) leave every convolution's unroll buffer unallocated. After warm
// LeNet steps at batch 32 and at batch 256, each buffer holds exactly one
// of Backward's strips — stripRows rows, whatever the batch — and never
// the batch-sized im2col matrix; a forward-only pass after them leaves it
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
	if len(convs) != 2 {
		t.Fatalf("LeNet-5 has %d convolutions, want 2", len(convs))
	}
	inputs := map[int]*tensor.Of[T]{}
	for _, batch := range []int{32, 256} {
		inputs[batch] = tensorOf[T](randInput(rng.New(uint64(batch)), batch, 3*16*16))
		net.Forward(inputs[batch], false)
	}
	for _, c := range convs {
		if got := cap(c.strip.buf); got != 0 {
			t.Fatalf("forward-only passes, %s: unroll buffer holds %d elements, want none", c.Name(), got)
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
		for _, c := range convs {
			rowLen := c.Geom.InC * c.Geom.KH * c.Geom.KW
			bound := stripRows[T](rowLen) * rowLen
			if got := cap(c.strip.buf); got != bound {
				t.Fatalf("batch %d, %s: unroll buffer holds %d elements, want one strip of %d (the whole unroll is %d)",
					batch, c.Name(), got, bound, batch*c.Geom.OutH()*c.Geom.OutW()*rowLen)
			}
		}
	}
}
