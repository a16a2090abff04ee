package nn

import (
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// TestConvUnrollBufferIsOneStrip pins the memory win: after warm LeNet
// steps at batch 32 and at batch 256, each convolution's unroll buffer
// holds exactly one strip — stripRows rows, whatever the batch — and
// never the batch-sized im2col matrix.
func TestConvUnrollBufferIsOneStrip(t *testing.T) {
	bothTypes(t, testConvUnrollBufferIsOneStrip[float64], testConvUnrollBufferIsOneStrip[float32])
}

func testConvUnrollBufferIsOneStrip[T tensor.Float](t *testing.T) {
	net := netOf[T](t, LeNet5(rng.New(1), 3, 16, 16, 10, 0.5))
	var ce SoftmaxCEOf[T]
	for _, batch := range []int{32, 256} {
		x := tensorOf[T](randInput(rng.New(uint64(batch)), batch, 3*16*16))
		labels := make([]int, batch)
		for step := 0; step < 2; step++ {
			zeroGrads(net)
			_, grad, _ := ce.Loss(net.Forward(x, true), labels)
			net.Backward(grad)
		}
		convs := 0
		for _, l := range net.Layers {
			c, ok := l.(*Conv2DOf[T])
			if !ok {
				continue
			}
			convs++
			rowLen := c.Geom.InC * c.Geom.KH * c.Geom.KW
			bound := stripRows[T](rowLen) * rowLen
			if got := cap(c.strip.buf); got != bound {
				t.Fatalf("batch %d, %s: unroll buffer holds %d elements, want one strip of %d (the whole unroll is %d)",
					batch, c.Name(), got, bound, batch*c.Geom.OutH()*c.Geom.OutW()*rowLen)
			}
		}
		if convs != 2 {
			t.Fatalf("LeNet-5 has %d convolutions, want 2", convs)
		}
	}
}
