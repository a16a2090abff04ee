//go:build !race

// Steady-state allocation regression for the full LeNet training step.
// PR 2 left 9 allocs/op on BenchmarkLeNetForwardBackward: the conv
// backward path's large matmuls crossed the parallel threshold and the
// old goroutine-per-call dispatch heap-allocated its row closures. The
// executor-backed dispatch is closure-free, so the whole step must now
// be allocation-free — including when the parallel branch is taken.
// Excluded under -race because the race runtime instruments allocations.

package nn

import (
	"runtime"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// lenetStep returns a warm closed-over LeNet forward+backward step on
// the benchmark geometry (batch 32, 3×16×16 inputs, 10 classes).
func lenetStep[T tensor.Float](t *testing.T) func() {
	r := rng.New(1)
	net := netOf[T](t, LeNet5(r, 3, 16, 16, 10, 0.5))
	var ce SoftmaxCEOf[T]
	x := tensor.NewOf[T](32, 3*16*16)
	labels := make([]int, 32)
	step := func() {
		zeroGrads(net)
		logits := net.Forward(x, true)
		_, grad, _ := ce.Loss(logits, labels)
		net.Backward(grad)
	}
	step() // warm every layer workspace
	return step
}

// TestLeNetForwardBackwardZeroAllocs covers the serial dispatch (as on
// GOMAXPROCS=1 machines) and, separately, the executor-backed parallel
// dispatch that the conv layers' large matmuls take on multicore hosts.
func TestLeNetForwardBackwardZeroAllocs(t *testing.T) {
	bothTypes(t, testLeNetForwardBackwardZeroAllocs[float64], testLeNetForwardBackwardZeroAllocs[float32])
}

func testLeNetForwardBackwardZeroAllocs[T tensor.Float](t *testing.T) {
	step := lenetStep[T](t)
	if n := testing.AllocsPerRun(30, step); n != 0 {
		t.Fatalf("warm LeNet forward+backward allocates %v times, want 0", n)
	}

	old := runtime.GOMAXPROCS(4) // force the parallel branch of splitRows
	defer runtime.GOMAXPROCS(old)
	step = lenetStep[T](t)
	if n := testing.AllocsPerRun(30, step); n != 0 {
		t.Fatalf("warm LeNet step with parallel matmul dispatch allocates %v times, want 0", n)
	}
}
