package nn

import (
	"math"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// freshVsReused runs the same forward (and optionally backward) schedule
// on a reused net and on a per-step fresh net, comparing outputs exactly.
// It is the core property of the workspace refactor: batch-shape changes
// must leave no residue.
func assertForwardMatchesFresh[T tensor.Float](t *testing.T, build func() *Sequential, dim int, batches []int) {
	t.Helper()
	r := rng.New(42)
	inputs := make([]*tensor.Of[T], len(batches))
	for i, b := range batches {
		inputs[i] = tensorOf[T](randInput(r, b, dim))
	}
	reused := netOf[T](t, build())
	for i, x := range inputs {
		got := reused.Forward(x, true)
		fresh := netOf[T](t, build())
		want := fresh.Forward(x, true)
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("step %d (batch %d): reused workspaces diverge from fresh net", i, x.Shape[0])
			}
		}
	}
}

// TestWorkspaceReuseAcrossBatchShapes drives every layer kind through the
// shapes the training loop produces: full batches, the partial final
// batch, batch size 1, and back to full.
func TestWorkspaceReuseAcrossBatchShapes(t *testing.T) {
	bothTypes(t, testWorkspaceReuseAcrossBatchShapes[float64], testWorkspaceReuseAcrossBatchShapes[float32])
}

func testWorkspaceReuseAcrossBatchShapes[T tensor.Float](t *testing.T) {
	shapes := []int{8, 3, 1, 8, 5, 8}
	t.Run("mlp", func(t *testing.T) {
		assertForwardMatchesFresh[T](t, func() *Sequential { return MLP(rng.New(7), 12, 9, 4) }, 12, shapes)
	})
	t.Run("lenet", func(t *testing.T) {
		assertForwardMatchesFresh[T](t, func() *Sequential { return LeNet5(rng.New(7), 1, 12, 12, 4, 0.25) }, 144, shapes)
	})
	t.Run("minivgg16", func(t *testing.T) {
		assertForwardMatchesFresh[T](t, func() *Sequential { return MiniVGG16(rng.New(7), 1, 4, 1) }, 32*32, shapes)
	})
}

// TestBackwardReuseAcrossBatchShapes checks that gradients accumulated
// through reused workspaces match a fresh net exactly as batch shapes
// vary (including the partial final batch and batch size 1).
func TestBackwardReuseAcrossBatchShapes(t *testing.T) {
	bothTypes(t, testBackwardReuseAcrossBatchShapes[float64], testBackwardReuseAcrossBatchShapes[float32])
}

// flatGrads concatenates every gradient of net in layer order.
func flatGrads[T tensor.Float](net *SequentialOf[T]) []T {
	var out []T
	for _, g := range net.Grads() {
		out = append(out, g.Data...)
	}
	return out
}

func testBackwardReuseAcrossBatchShapes[T tensor.Float](t *testing.T) {
	r := rng.New(9)
	reused := netOf[T](t, LeNet5(rng.New(8), 1, 12, 12, 4, 0.25))
	var ceR SoftmaxCEOf[T]
	for _, batch := range []int{8, 3, 1, 8} {
		x := tensorOf[T](randInput(r, batch, 144))
		labels := make([]int, batch)
		for i := range labels {
			labels[i] = i % 4
		}
		zeroGrads(reused)
		_, gradR, _ := ceR.Loss(reused.Forward(x, true), labels)
		reused.Backward(gradR)
		got := flatGrads(reused)

		fresh := netOf[T](t, LeNet5(rng.New(8), 1, 12, 12, 4, 0.25))
		var ceF SoftmaxCEOf[T]
		zeroGrads(fresh)
		_, gradF, _ := ceF.Loss(fresh.Forward(x, true), labels)
		fresh.Backward(gradF)
		want := flatGrads(fresh)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch %d: gradient %d = %v, want %v", batch, i, got[i], want[i])
			}
		}
	}
}

// TestAlternatingTrainEvalOnSameModel interleaves eval-mode forwards
// (a different batch size, as the engine's evaluation protocol does on
// pooled models) with training steps and verifies the training result is
// unaffected — eval passes may share workspaces but must not perturb
// training state.
func TestAlternatingTrainEvalOnSameModel(t *testing.T) {
	bothTypes(t, testAlternatingTrainEvalOnSameModel[float64], testAlternatingTrainEvalOnSameModel[float32])
}

func testAlternatingTrainEvalOnSameModel[T tensor.Float](t *testing.T) {
	r := rng.New(10)
	xTrain := tensorOf[T](randInput(r, 6, 12))
	xEval := tensorOf[T](randInput(r, 13, 12))
	labels := []int{0, 1, 2, 3, 0, 1}

	step := func(net *SequentialOf[T], ce *SoftmaxCEOf[T], withEval bool) {
		if withEval {
			net.Forward(xEval, false)
		}
		zeroGrads(net)
		_, grad, _ := ce.Loss(net.Forward(xTrain, true), labels)
		net.Backward(grad)
		params, grads := net.Params(), net.Grads()
		for i := range params {
			params[i].AddScaled(grads[i], -0.1)
		}
	}

	plain := netOf[T](t, MLP(rng.New(11), 12, 9, 4))
	interleaved := netOf[T](t, MLP(rng.New(11), 12, 9, 4))
	var ceP, ceI SoftmaxCEOf[T]
	for i := 0; i < 4; i++ {
		step(plain, &ceP, false)
		step(interleaved, &ceI, true)
	}
	a := FlattenParamsInto(plain, make([]T, plain.NumParams()))
	b := FlattenParamsInto(interleaved, make([]T, interleaved.NumParams()))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("interleaved eval forwards changed the training trajectory")
		}
	}
}

// TestSoftmaxCEWorkspaceReuse verifies the loss head's reused workspaces
// produce identical results across changing batch shapes.
func TestSoftmaxCEWorkspaceReuse(t *testing.T) {
	bothTypes(t, testSoftmaxCEWorkspaceReuse[float64], testSoftmaxCEWorkspaceReuse[float32])
}

func testSoftmaxCEWorkspaceReuse[T tensor.Float](t *testing.T) {
	r := rng.New(14)
	var reused SoftmaxCEOf[T]
	for _, batch := range []int{6, 2, 1, 6} {
		logits := tensorOf[T](randInput(r, batch, 5))
		labels := make([]int, batch)
		for i := range labels {
			labels[i] = i % 5
		}
		l1, g1, p1 := reused.Loss(logits, labels)
		var fresh SoftmaxCEOf[T]
		l2, g2, p2 := fresh.Loss(logits, labels)
		if l1 != l2 {
			t.Fatalf("batch %d: loss %v != %v", batch, l1, l2)
		}
		for i := range g2.Data {
			if g1.Data[i] != g2.Data[i] || p1.Data[i] != p2.Data[i] {
				t.Fatalf("batch %d: reused loss workspaces diverge", batch)
			}
		}
	}
}

// TestGradCheckAfterShapeChurn reruns a gradient check after the
// workspaces have been resized by mixed batch shapes, ensuring resize
// paths keep backward math correct (the gradcheck suite itself runs each
// net on a single shape).
func TestGradCheckAfterShapeChurn(t *testing.T) {
	r := rng.New(15)
	net := LeNet5(r, 1, 12, 12, 3, 0.25)
	for _, batch := range []int{5, 2, 7} {
		net.Forward(randInput(r, batch, 144), true)
	}
	checkGradients[float64](t, net, randInput(r, 2, 144), []int{0, 2})
	if math.IsNaN(flatGrads(net)[0]) {
		t.Fatal("NaN gradient after shape churn")
	}
}
