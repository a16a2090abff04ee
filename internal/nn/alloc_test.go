//go:build !race

// Steady-state allocation regression for the full LeNet training step:
// every layer works in its own warm workspace and every product runs on
// the calling goroutine, so the whole step must be allocation-free.
// Excluded under -race because the race runtime instruments allocations.

package nn

import (
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// TestLeNetForwardBackwardZeroAllocs: a warm LeNet forward+backward
// step on the benchmark geometry (3×16×16 inputs, 10 classes, batch 32)
// allocates nothing, in either element type.
func TestLeNetForwardBackwardZeroAllocs(t *testing.T) {
	bothTypes(t, testLeNetForwardBackwardZeroAllocs[float64], testLeNetForwardBackwardZeroAllocs[float32])
}

func testLeNetForwardBackwardZeroAllocs[T tensor.Float](t *testing.T) {
	const batch = 32
	net := netOf[T](t, LeNet5(rng.New(1), 3, 16, 16, 10, 0.5))
	var ce SoftmaxCEOf[T]
	x := tensor.NewOf[T](batch, 3*16*16)
	labels := make([]int, batch)
	step := func() {
		zeroGrads(net)
		logits := net.Forward(x, true)
		_, grad, _ := ce.Loss(logits, labels)
		net.Backward(grad)
	}
	step() // warm every layer workspace
	if n := testing.AllocsPerRun(30, step); n != 0 {
		t.Fatalf("warm LeNet forward+backward allocates %v times, want 0", n)
	}
}
