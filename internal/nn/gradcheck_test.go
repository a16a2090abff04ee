package nn

import (
	"math"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// netOf returns the network the T compute path runs for src: src itself
// in float64, its loaded Mirror32 shadow in float32.
func netOf[T tensor.Float](t testing.TB, src *Sequential) *SequentialOf[T] {
	t.Helper()
	if n, ok := any(src).(*SequentialOf[T]); ok {
		return n
	}
	m := Mirror32(src)
	AssignParams32(m, src)
	return any(m).(*SequentialOf[T])
}

// zeroGrads clears every accumulated gradient of net.
func zeroGrads[T tensor.Float](net *SequentialOf[T]) { clear(net.GradData()) }

// alone gives l the storage of a network of its own and returns it, its
// weights zero. l is that network's first layer with parameters, so its
// Backward computes no input gradient.
func alone[L Layer[float64]](l L) L {
	NewSequential(l)
	return l
}

// addScaled is the plain SGD step the training tests take: p += s·g.
func addScaled[T tensor.Float](p, g *tensor.Of[T], s T) {
	for i, v := range g.Data {
		p.Data[i] += s * v
	}
}

// tensorOf returns x in element type T (x itself for float64).
func tensorOf[T tensor.Float](x *tensor.Tensor) *tensor.Of[T] {
	if same, ok := any(x).(*tensor.Of[T]); ok {
		return same
	}
	out := tensor.NewOf[T](x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = T(v)
	}
	return out
}

// bothTypes runs one generic test body per element type.
func bothTypes(t *testing.T, f64, f32 func(t *testing.T)) {
	t.Run("float64", f64)
	t.Run("float32", f32)
}

// numericalGrad estimates dLoss/dTheta for every parameter of net by
// central finite differences, where the loss is softmax CE on (x, labels).
// The loss head reports in float64 whatever T is, so for float32 eps can
// sit well above rounding noise while the quotient stays meaningful.
func numericalGrad[T tensor.Float](net *SequentialOf[T], x *tensor.Of[T], labels []int, eps T) []float64 {
	var ce SoftmaxCEOf[T]
	lossAt := func() float64 {
		loss, _, _ := ce.Loss(net.Forward(x, false), labels)
		return loss
	}
	var grads []float64
	for _, p := range net.Params() {
		for i := range p.Data {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			lp := lossAt()
			p.Data[i] = orig - eps
			lm := lossAt()
			p.Data[i] = orig
			grads = append(grads, (lp-lm)/(2*float64(eps)))
		}
	}
	return grads
}

// analyticGrad runs one forward/backward pass and returns the flat
// parameter gradient, widened to float64.
func analyticGrad[T tensor.Float](net *SequentialOf[T], x *tensor.Of[T], labels []int) []float64 {
	var ce SoftmaxCEOf[T]
	zeroGrads(net)
	logits := net.Forward(x, true)
	_, grad, _ := ce.Loss(logits, labels)
	net.Backward(grad)
	var out []float64
	for _, g := range net.Grads() {
		for _, v := range g.Data {
			out = append(out, float64(v))
		}
	}
	return out
}

// compareGrads fails unless got and want agree within rel, relative to
// their combined magnitude floored at floor.
func compareGrads(t *testing.T, what string, got, want []float64, floor, rel float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("gradient length mismatch: %d vs %d", len(got), len(want))
	}
	for i := range got {
		scale := math.Max(floor, math.Abs(got[i])+math.Abs(want[i]))
		if math.Abs(got[i]-want[i])/scale > rel {
			t.Fatalf("gradient %d mismatch (%s): %v vs %v", i, what, got[i], want[i])
		}
	}
}

// checkGradients compares the T compute path's analytic gradient of src
// against central differences taken on the same path. The step and
// tolerances are per type: float64 resolves eps 1e-5 to 1e-4 relative;
// float32 needs eps 1e-2 to rise above forward-pass rounding, and 5e-2.
func checkGradients[T tensor.Float](t *testing.T, src *Sequential, x *tensor.Tensor, labels []int) {
	t.Helper()
	net, xT := netOf[T](t, src), tensorOf[T](x)
	eps, floor, rel := 1e-5, 1e-4, 1e-4
	if _, f32 := any(net).(*SequentialOf[float32]); f32 {
		eps, floor, rel = 1e-2, 1e-2, 5e-2
	}
	ana := analyticGrad(net, xT, labels)
	num := numericalGrad(net, xT, labels, T(eps))
	compareGrads(t, "analytic vs numerical", ana, num, floor, rel)
}

// checkGradients32VsFloat64 checks the float32 analytic gradient against
// the float64 analytic gradient of the same network. The float64
// gradient is itself pinned by the numerical check, so this transitively
// verifies the float32 backward pass — and unlike a wide-eps central
// difference it is immune to ReLU/argmax kink crossing, which is why the
// kinked stacks use it.
func checkGradients32VsFloat64(t *testing.T, src *Sequential, x *tensor.Tensor, labels []int) {
	t.Helper()
	ref := analyticGrad(src, x, labels)
	got := analyticGrad(netOf[float32](t, src), tensorOf[float32](x), labels)
	compareGrads(t, "float32 vs float64", got, ref, 1e-3, 5e-3)
}

func randInput(r *rng.Rng, batch, dim int) *tensor.Tensor {
	x := tensor.New(batch, dim)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	return x
}

// gradCases is the architecture table both element types are checked on.
// kinked marks stacks with a ReLU or max-pool, whose float32 gradient is
// checked against float64 instead of against wide-eps differences.
var gradCases = []struct {
	name   string
	seed   uint64
	kinked bool
	build  func(r *rng.Rng) (net *Sequential, x *tensor.Tensor, labels []int)
}{
	{"Dense", 1, false, func(r *rng.Rng) (*Sequential, *tensor.Tensor, []int) {
		return HeInit(NewSequential(NewDense(7, 4)), r), randInput(r, 5, 7), []int{0, 1, 2, 3, 0}
	}},
	{"MLPReLU", 2, true, func(r *rng.Rng) (*Sequential, *tensor.Tensor, []int) {
		return MLP(r, 6, 8, 3), randInput(r, 4, 6), []int{0, 1, 2, 1}
	}},
	{"ConvReLU", 4, true, func(r *rng.Rng) (*Sequential, *tensor.Tensor, []int) {
		g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
		conv := NewConv2D(g, 3)
		net := HeInit(NewSequential(conv, NewReLU(conv.OutDim()), NewDense(conv.OutDim(), 3)), r)
		return net, randInput(r, 2, 2*6*6), []int{0, 2}
	}},
	// No ReLU: the smooth stack keeps the central difference honest, so
	// the float32 convolution's backward gets a numerical check of its own.
	{"ConvSmooth", 45, false, func(r *rng.Rng) (*Sequential, *tensor.Tensor, []int) {
		g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
		conv := NewConv2D(g, 3)
		return HeInit(NewSequential(conv, NewDense(conv.OutDim(), 3)), r), randInput(r, 2, 2*6*6), []int{0, 2}
	}},
	{"ConvStride2NoPad", 5, false, func(r *rng.Rng) (*Sequential, *tensor.Tensor, []int) {
		g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 0}
		conv := NewConv2D(g, 2)
		return HeInit(NewSequential(conv, NewDense(conv.OutDim(), 2)), r), randInput(r, 2, 64), []int{0, 1}
	}},
	{"MaxPool", 6, true, func(r *rng.Rng) (*Sequential, *tensor.Tensor, []int) {
		pool := NewMaxPool2(2, 4, 4)
		return HeInit(NewSequential(pool, NewDense(pool.OutDim(), 3)), r), randInput(r, 3, 32), []int{0, 1, 2}
	}},
	{"ConvPoolStack", 7, true, func(r *rng.Rng) (*Sequential, *tensor.Tensor, []int) {
		g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
		conv := NewConv2D(g, 2)
		pool := NewMaxPool2(2, 8, 8)
		net := HeInit(NewSequential(conv, NewReLU(conv.OutDim()), pool, NewDense(pool.OutDim(), 4)), r)
		return net, randInput(r, 2, 64), []int{3, 1}
	}},
	// A narrow LeNet-5 on a 12x12 single-channel input exercises the full
	// Table-I architecture end to end.
	{"LeNetTiny", 8, true, func(r *rng.Rng) (*Sequential, *tensor.Tensor, []int) {
		return LeNet5(r, 1, 12, 12, 3, 0.25), randInput(r, 2, 144), []int{0, 2}
	}},
}

// TestGradCheck verifies every layer's backward pass on both compute
// paths.
func TestGradCheck(t *testing.T) {
	for _, c := range gradCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			bothTypes(t, func(t *testing.T) {
				net, x, labels := c.build(rng.New(c.seed))
				checkGradients[float64](t, net, x, labels)
			}, func(t *testing.T) {
				net, x, labels := c.build(rng.New(c.seed))
				if c.kinked {
					checkGradients32VsFloat64(t, net, x, labels)
				} else {
					checkGradients[float32](t, net, x, labels)
				}
			})
		})
	}
}
