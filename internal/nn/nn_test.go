package nn

import (
	"math"
	"strings"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

func TestDenseForwardKnown(t *testing.T) {
	d := alone(NewDense(2, 2))
	copy(d.W.Data, []float64{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(d.B.Data, []float64{10, 20})
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	y := d.Forward(x, false)
	if y.At(0, 0) != 13 || y.At(0, 1) != 27 {
		t.Fatalf("Dense forward = %v", y.Data)
	}
}

func TestDenseShapePanics(t *testing.T) {
	d := alone(NewDense(3, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input width did not panic")
		}
	}()
	d.Forward(tensor.New(1, 4), false)
}

func TestReLUForwardBackward(t *testing.T) {
	relu := NewReLU(4)
	x := tensor.FromSlice([]float64{-1, 2, 0, 3}, 1, 4)
	y := relu.Forward(x, true)
	want := []float64{0, 2, 0, 3}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("ReLU forward = %v", y.Data)
		}
	}
	g := relu.Backward(tensor.FromSlice([]float64{1, 1, 1, 1}, 1, 4))
	wantG := []float64{0, 1, 0, 1}
	for i, v := range wantG {
		if g.Data[i] != v {
			t.Fatalf("ReLU backward = %v", g.Data)
		}
	}
}

func TestMaxPoolForwardKnown(t *testing.T) {
	p := NewMaxPool2(1, 4, 4)
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 16)
	y := p.Forward(x, false)
	want := []float64{6, 8, 14, 16}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("MaxPool forward = %v, want %v", y.Data, want)
		}
	}
}

func TestMaxPoolOddDimsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd pool dims did not panic")
		}
	}()
	NewMaxPool2(1, 5, 4)
}

func TestConvForwardKnownIdentityKernel(t *testing.T) {
	// 1x1 kernel with weight 1, bias 0 must be the identity.
	g := tensor.ConvGeom{InC: 1, InH: 3, InW: 3, KH: 1, KW: 1, Stride: 1, Pad: 0}
	c := alone(NewConv2D(g, 1))
	c.W.Data[0] = 1
	c.B.Data[0] = 0
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 9)
	y := c.Forward(x, false)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatalf("identity conv = %v", y.Data)
		}
	}
}

func TestConvBiasBroadcast(t *testing.T) {
	g := tensor.ConvGeom{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 1, Pad: 0}
	c := alone(NewConv2D(g, 2))
	c.W.Zero()
	c.B.Data[0], c.B.Data[1] = 5, -3
	x := tensor.New(1, 4)
	y := c.Forward(x, false)
	// channel 0 occupies first 4 outputs, channel 1 the next 4
	for i := 0; i < 4; i++ {
		if y.Data[i] != 5 || y.Data[4+i] != -3 {
			t.Fatalf("bias broadcast = %v", y.Data)
		}
	}
}

func TestSoftmaxCELossKnown(t *testing.T) {
	var ce SoftmaxCE
	logits := tensor.FromSlice([]float64{0, 0}, 1, 2)
	loss, grad, probs := ce.Loss(logits, []int{0})
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("uniform loss = %v, want ln2", loss)
	}
	if math.Abs(probs.Data[0]-0.5) > 1e-12 {
		t.Fatalf("probs = %v", probs.Data)
	}
	if math.Abs(grad.Data[0]-(-0.5)) > 1e-12 || math.Abs(grad.Data[1]-0.5) > 1e-12 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestSoftmaxCEStability(t *testing.T) {
	var ce SoftmaxCE
	logits := tensor.FromSlice([]float64{1000, -1000}, 1, 2)
	loss, _, probs := ce.Loss(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss overflowed: %v", loss)
	}
	if probs.Data[0] < 0.999 {
		t.Fatalf("stable softmax wrong: %v", probs.Data)
	}
	// Loss on the wrong label with huge margin must be large but finite.
	loss2, _, _ := ce.Loss(logits, []int{1})
	if math.IsInf(loss2, 0) || loss2 < 100 {
		t.Fatalf("wrong-label loss = %v", loss2)
	}
}

func TestSoftmaxCEBadLabelPanics(t *testing.T) {
	var ce SoftmaxCE
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label did not panic")
		}
	}()
	ce.Loss(tensor.New(1, 3), []int{3})
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		2, 1, 0,
		0, 3, 1,
		1, 0, 5,
		9, 0, 0,
	}, 4, 3)
	if a := Accuracy(logits, []int{0, 1, 2, 1}); math.Abs(a-0.75) > 1e-12 {
		t.Fatalf("Accuracy = %v, want 0.75", a)
	}
}

func TestSequentialShape(t *testing.T) {
	r := rng.New(9)
	net := MLP(r, 10, 16, 4)
	y := net.Forward(tensor.New(3, 10), false)
	if y.Shape[0] != 3 || y.Shape[1] != 4 {
		t.Fatalf("MLP output shape = %v", y.Shape)
	}
	if !strings.Contains(net.String(), "dense(10→16)") {
		t.Fatalf("String = %q", net.String())
	}
}

func TestFlattenLoadRoundTrip(t *testing.T) {
	r := rng.New(10)
	net := MLP(r, 5, 7, 3)
	vec := FlattenParams(net)
	if len(vec) != net.NumParams() {
		t.Fatalf("flat length %d != NumParams %d", len(vec), net.NumParams())
	}
	// Perturb, reload, verify.
	vec2 := append([]float64(nil), vec...)
	for i := range vec2 {
		vec2[i] += 1
	}
	LoadParams(net, vec2)
	got := FlattenParams(net)
	for i := range got {
		if got[i] != vec[i]+1 {
			t.Fatal("LoadParams/FlattenParams round trip failed")
		}
	}
}

func TestLoadParamsLengthPanics(t *testing.T) {
	net := MLP(rng.New(11), 4, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("LoadParams with wrong length did not panic")
		}
	}()
	LoadParams(net, make([]float64, 7))
}

func TestWeightLayersAndFinalLayer(t *testing.T) {
	r := rng.New(12)
	net := LeNet5(r, 1, 16, 16, 10, 0.5)
	wl := WeightLayers(net)
	if len(wl) != 5 { // conv, conv, dense, dense, dense
		t.Fatalf("LeNet-5 weight layers = %d, want 5", len(wl))
	}
	final := FinalLayerVector(net)
	last := net.Layers[wl[len(wl)-1]].(*Dense)
	wantLen := last.W.Size() + last.B.Size()
	if len(final) != wantLen {
		t.Fatalf("final layer vector length %d, want %d", len(final), wantLen)
	}
	// The final layer vector must literally be the classifier weights.
	for i := 0; i < last.W.Size(); i++ {
		if final[i] != last.W.Data[i] {
			t.Fatal("final layer vector does not match classifier weights")
		}
	}
}

func TestLayerParamVectorIndependentLayers(t *testing.T) {
	r := rng.New(13)
	net := MLP(r, 4, 5, 3)
	v0 := LayerParamVector(net, 0)
	v1 := LayerParamVector(net, 1)
	if len(v0) != 4*5+5 || len(v1) != 5*3+3 {
		t.Fatalf("layer vector lengths %d, %d", len(v0), len(v1))
	}
}

func TestLeNet5Shapes(t *testing.T) {
	r := rng.New(14)
	for _, tc := range []struct{ c, h, w int }{{1, 28, 28}, {3, 32, 32}, {3, 16, 16}} {
		net := LeNet5(r, tc.c, tc.h, tc.w, 10, 0.5)
		y := net.Forward(tensor.New(2, tc.c*tc.h*tc.w), false)
		if y.Shape[0] != 2 || y.Shape[1] != 10 {
			t.Fatalf("LeNet5(%v) output %v", tc, y.Shape)
		}
	}
}

func TestMiniVGG16Structure(t *testing.T) {
	r := rng.New(15)
	net := MiniVGG16(r, 3, 10, 2)
	wl := WeightLayers(net)
	if len(wl) != 16 {
		t.Fatalf("MiniVGG16 weight layers = %d, want 16", len(wl))
	}
	// Layers 1-13 conv, 14-16 dense (1-based).
	for i, li := range wl {
		_, isConv := net.Layers[li].(*Conv2D)
		_, isDense := net.Layers[li].(*Dense)
		if i < 13 && !isConv {
			t.Fatalf("weight layer %d should be conv", i+1)
		}
		if i >= 13 && !isDense {
			t.Fatalf("weight layer %d should be dense", i+1)
		}
	}
	y := net.Forward(tensor.New(1, 3*32*32), false)
	if y.Shape[1] != 10 {
		t.Fatalf("MiniVGG16 output shape %v", y.Shape)
	}
}

func TestTrainingReducesLossOnToyProblem(t *testing.T) {
	// Two linearly separable Gaussian blobs; a tiny MLP trained by plain
	// gradient steps must reach near-zero loss. This exercises the entire
	// forward/backward/update loop without the opt package.
	r := rng.New(16)
	net := MLP(r, 2, 8, 2)
	var ce SoftmaxCE
	n := 60
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		x.Set(float64(2*c-1)*2+0.3*r.NormFloat64(), i, 0)
		x.Set(0.3*r.NormFloat64(), i, 1)
	}
	var first, last float64
	for epoch := 0; epoch < 200; epoch++ {
		zeroGrads(net)
		logits := net.Forward(x, true)
		loss, grad, _ := ce.Loss(logits, labels)
		if epoch == 0 {
			first = loss
		}
		last = loss
		net.Backward(grad)
		params, grads := net.Params(), net.Grads()
		for i := range params {
			addScaled(params[i], grads[i], -0.5)
		}
	}
	if last > first/10 || last > 0.2 {
		t.Fatalf("training failed to reduce loss: first=%v last=%v", first, last)
	}
	if acc := Accuracy(net.Forward(x, false), labels); acc < 0.95 {
		t.Fatalf("toy accuracy = %v", acc)
	}
}

func BenchmarkLeNetForward(b *testing.B) {
	r := rng.New(1)
	net := LeNet5(r, 3, 16, 16, 10, 0.5)
	x := tensor.New(32, 3*16*16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Forward(x, false)
	}
}

func BenchmarkLeNetForwardBackward(b *testing.B) {
	r := rng.New(1)
	net := LeNet5(r, 3, 16, 16, 10, 0.5)
	var ce SoftmaxCE
	x := tensor.New(32, 3*16*16)
	labels := make([]int, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zeroGrads(net)
		logits := net.Forward(x, true)
		_, grad, _ := ce.Loss(logits, labels)
		net.Backward(grad)
	}
}
