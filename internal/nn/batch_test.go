package nn

import (
	"math"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// TestBatchForwardMatchesPerSample verifies that forwarding a batch
// produces exactly the same outputs as forwarding each sample separately —
// the layers must not leak information across batch rows.
func TestBatchForwardMatchesPerSample(t *testing.T) {
	r := rng.New(1)
	nets := map[string]*Sequential{
		"mlp":   MLP(rng.New(2), 12, 9, 4),
		"lenet": LeNet5(rng.New(2), 1, 12, 12, 4, 0.25),
	}
	dims := map[string]int{"mlp": 12, "lenet": 144}
	for name, net := range nets {
		dim := dims[name]
		batch := tensor.New(5, dim)
		for i := range batch.Data {
			batch.Data[i] = r.NormFloat64()
		}
		// Clone: Forward returns a reused workspace, invalidated by the
		// per-sample forwards below.
		full := net.Forward(batch, false).Clone()
		for s := 0; s < 5; s++ {
			single := tensor.New(1, dim)
			copy(single.Data, batch.Row(s))
			y := net.Forward(single, false)
			for j := 0; j < y.Shape[1]; j++ {
				if math.Abs(y.At(0, j)-full.At(s, j)) > 1e-10 {
					t.Fatalf("%s: batch row %d differs from single-sample forward", name, s)
				}
			}
		}
	}
}

// TestGradientAccumulation verifies that two Backward calls without
// zeroing in between sum gradients (the contract optimizers rely on).
func TestGradientAccumulation(t *testing.T) {
	r := rng.New(3)
	net := HeInit(NewSequential(NewDense(4, 3)), r)
	var ce SoftmaxCE
	x := tensor.New(2, 4)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	labels := []int{0, 2}

	zeroGrads(net)
	logits := net.Forward(x, true)
	_, grad, _ := ce.Loss(logits, labels)
	net.Backward(grad)
	once := flatGrads(net)

	logits = net.Forward(x, true)
	_, grad, _ = ce.Loss(logits, labels)
	net.Backward(grad)
	twice := flatGrads(net)

	for i := range once {
		if math.Abs(twice[i]-2*once[i]) > 1e-12 {
			t.Fatalf("gradient %d did not accumulate: %v vs 2×%v", i, twice[i], once[i])
		}
	}
}

// TestLossDecreasesUnderGradientStep is a sanity property: a small step
// against the gradient must not increase the loss (first-order decrease).
func TestLossDecreasesUnderGradientStep(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 5; trial++ {
		net := MLP(r.Derive(uint64(trial)), 6, 10, 3)
		var ce SoftmaxCE
		x := tensor.New(8, 6)
		labels := make([]int, 8)
		tr := r.Derive(uint64(trial), 1)
		for i := range x.Data {
			x.Data[i] = tr.NormFloat64()
		}
		for i := range labels {
			labels[i] = tr.Intn(3)
		}
		zeroGrads(net)
		before, grad, _ := ce.Loss(net.Forward(x, true), labels)
		net.Backward(grad)
		params, grads := net.Params(), net.Grads()
		for i := range params {
			addScaled(params[i], grads[i], -1e-3)
		}
		after, _, _ := ce.Loss(net.Forward(x, false), labels)
		if after > before {
			t.Fatalf("trial %d: loss increased after gradient step: %v → %v", trial, before, after)
		}
	}
}

// TestWeightLayerIndicesStable verifies that WeightLayers returns only
// parameterized layers, in order, for a mixed architecture.
func TestWeightLayerIndicesStable(t *testing.T) {
	d1 := NewDense(4, 8)
	d2 := NewDense(2, 2)
	net := NewSequential(d1, NewReLU(8), NewMaxPool2(2, 2, 2), d2)
	wl := WeightLayers(net)
	if len(wl) != 2 || wl[0] != 0 || wl[1] != 3 {
		t.Fatalf("WeightLayers = %v", wl)
	}
}
