package fl

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fedclust/internal/data"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
	"fedclust/internal/wire"
)

// clientCfg is the divergence suite's shared local pass: two epochs of
// momentum SGD, the same shape the golden workloads train.
var clientCfg = LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9}

// TestLocalUpdate32MatchesFloat64Within pins the per-LocalUpdate
// divergence bound: one float32 local pass from the same start must land
// within float32 accumulation distance of the float64 reference — loss
// within 1e-3, every parameter within 5e-3 relative. These bounds have
// ~10× headroom over observed divergence; they catch wrong math, not
// rounding drift.
func TestLocalUpdate32MatchesFloat64Within(t *testing.T) {
	d := benchDataset(40)
	m64 := nn.MLP(rng.New(1), d.Dim(), 20, d.Classes)
	m32 := nn.MLP(rng.New(1), d.Dim(), 20, d.Classes)

	var ts64 TrainScratch
	ts32 := TrainScratch{DType: Float32}
	loss64 := ts64.LocalUpdate(m64, d, clientCfg, rng.New(7))
	loss32 := ts32.LocalUpdate(m32, d, clientCfg, rng.New(7))
	if ts32.f32.net == nil {
		t.Fatal("float32 scratch did not take the float32 path")
	}
	if diff := math.Abs(loss64 - loss32); diff > 1e-3 {
		t.Errorf("mean loss diverged by %g: f64 %g vs f32 %g", diff, loss64, loss32)
	}
	p64, p32 := m64.Params(), m32.Params()
	for i := range p64 {
		for j := range p64[i].Data {
			a, b := p64[i].Data[j], p32[i].Data[j]
			scale := math.Abs(a) + math.Abs(b)
			if scale < 1e-2 {
				scale = 1e-2
			}
			if math.Abs(a-b)/scale > 5e-3 {
				t.Fatalf("param %d[%d] diverged: f64 %g vs f32 %g", i, j, a, b)
			}
		}
	}
}

// TestLocalUpdate32Deterministic pins that the float32 pass is a pure
// function of (weights, dataset, cfg, rng): two scratches (one fresh,
// one reused across an unrelated earlier visit) produce bit-identical
// parameters and loss.
func TestLocalUpdate32Deterministic(t *testing.T) {
	d := benchDataset(40)
	run := func(ts *TrainScratch) (float64, []float64) {
		m := nn.MLP(rng.New(1), d.Dim(), 20, d.Classes)
		loss := ts.LocalUpdate(m, d, clientCfg, rng.New(9))
		return loss, nn.FlattenParams(m)
	}
	var fresh TrainScratch
	fresh.DType = Float32
	reused := TrainScratch{DType: Float32}
	// Dirty the reused scratch with a different visit first.
	m := nn.MLP(rng.New(2), d.Dim(), 20, d.Classes)
	reused.LocalUpdate(m, d, clientCfg, rng.New(3))

	lossA, wA := run(&fresh)
	lossB, wB := run(&reused)
	if lossA != lossB {
		t.Fatalf("loss not bit-identical: %x vs %x", math.Float64bits(lossA), math.Float64bits(lossB))
	}
	for i := range wA {
		if wA[i] != wB[i] {
			t.Fatalf("param %d not bit-identical: %x vs %x", i, math.Float64bits(wA[i]), math.Float64bits(wB[i]))
		}
	}
}

// TestEvaluate32MatchesFloat64 pins the evaluation-side divergence
// bound: the float32 eval path must agree with float64 on loss within
// 1e-3 and accuracy within one batch-tie flip.
func TestEvaluate32MatchesFloat64(t *testing.T) {
	d := benchDataset(40)
	model := nn.MLP(rng.New(4), d.Dim(), 20, d.Classes)
	var ts64 TrainScratch
	ts32 := TrainScratch{DType: Float32}
	l64, a64 := ts64.Evaluate(model, d, 64)
	l32, a32 := ts32.Evaluate(model, d, 64)
	if diff := math.Abs(l64 - l32); diff > 1e-3 {
		t.Errorf("eval loss diverged by %g: f64 %g vs f32 %g", diff, l64, l32)
	}
	if diff := math.Abs(a64 - a32); diff > 1.0/float64(d.Len())+1e-12 {
		t.Errorf("eval accuracy diverged by %g: f64 %g vs f32 %g", diff, a64, a32)
	}
}

// TestParams32RoundTrip pins the exactness the Float32 uplink relies
// on: after a float32 LocalUpdate, the float32 network's vector equals
// float32(model parameter) bit for bit — widening back to float64 lost
// nothing, so a Float32 wire frame of the widened model carries exactly
// the trained float32 bits.
func TestParams32RoundTrip(t *testing.T) {
	d := benchDataset(40)
	m := nn.MLP(rng.New(1), d.Dim(), 20, d.Classes)
	ts := TrainScratch{DType: Float32}
	ts.LocalUpdate(m, d, clientCfg, rng.New(5))
	sh := ts.f32.net
	vec := nn.FlattenParamsInto(sh, make([]float32, sh.NumParams()))
	flat := nn.FlattenParams(m)
	if len(vec) != len(flat) {
		t.Fatalf("float32 network has %d params, model has %d", len(vec), len(flat))
	}
	frame, err := wire.Decode(wire.EncodeInto(nil, wire.Float32, flat))
	if err != nil {
		t.Fatal(err)
	}
	for i := range flat {
		if want := float32(flat[i]); vec[i] != want || float32(frame[i]) != want {
			t.Fatalf("param %d: float32 network %x, rounded model %x, Float32 frame %x", i,
				math.Float32bits(vec[i]), math.Float32bits(want), math.Float32bits(float32(frame[i])))
		}
	}
}

// TestZooMirrorsToFloat32: every architecture the model zoo builds has a
// float32 form, and a Float32 scratch trains it on the float32 path.
func TestZooMirrorsToFloat32(t *testing.T) {
	small := benchDataset(10)
	wide, _ := data.Generate(data.SynthConfig{
		Name: "zoo32", C: 1, H: 32, W: 32, Classes: 4,
		TrainPerClass: 2, TestPerClass: 1,
		ClassSep: 0.85, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: 12,
	})
	cases := []struct {
		name  string
		model *nn.Sequential
		d     *data.Dataset
	}{
		{"mlp", nn.MLP(rng.New(1), small.Dim(), 20, small.Classes), small},
		{"lenet5", nn.LeNet5(rng.New(2), 1, 8, 8, small.Classes, 0.5), small},
		{"minivgg16", nn.MiniVGG16(rng.New(3), 1, wide.Classes, 1), wide},
	}
	for _, c := range cases {
		ts := TrainScratch{DType: Float32}
		ts.LocalUpdate(c.model, c.d, LocalConfig{Epochs: 1, BatchSize: 4, LR: 0.05}, rng.New(4))
		if ts.f32.net == nil {
			t.Fatalf("%s: the float32 visit ran on the float64 path", c.name)
		}
	}
}

// oddLayer is a Layer with no float32 form.
type oddLayer struct{ dim int }

func (o *oddLayer) Name() string                                        { return "odd" }
func (o *oddLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }
func (o *oddLayer) Backward(g *tensor.Tensor) *tensor.Tensor            { return g }
func (o *oddLayer) Params() []*tensor.Tensor                            { return nil }
func (o *oddLayer) Grads() []*tensor.Tensor                             { return nil }
func (o *oddLayer) OutDim() int                                         { return o.dim }

// TestMirror32PanicsOnUnknownLayer: a layer kind with no float32 form is
// a construction error naming the layer, raised by the first float32
// visit — never a silent fallback to the float64 path.
func TestMirror32PanicsOnUnknownLayer(t *testing.T) {
	d := benchDataset(40)
	r := rng.New(1)
	m := nn.HeInit(nn.NewSequential(nn.NewDense(d.Dim(), 20), &oddLayer{dim: 20}, nn.NewDense(20, d.Classes)), r)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "layer 1 (odd)") {
			t.Fatalf("float32 visit of an unknown layer kind: got %q, want a panic naming it", msg)
		}
	}()
	ts := TrainScratch{DType: Float32}
	ts.LocalUpdate(m, d, clientCfg, rng.New(8))
}

// TestFloat32ShadowFollowsArchitecture is the regression test for a
// float32 network reused on parameter sizes alone: two architectures
// whose parameter tensors line up must not share one — Dense,
// ReLU, Dense against the same two Dense layers alone, and a
// convolution followed by max pooling against the same kernel at stride
// 2 followed by a ReLU. The second model on a reused TrainScratch must
// behave exactly as on a fresh one.
func TestFloat32ShadowFollowsArchitecture(t *testing.T) {
	d := benchDataset(40)
	mlp := func(relu bool) func() *nn.Sequential {
		return func() *nn.Sequential {
			r := rng.New(1)
			layers := []nn.Layer[float64]{nn.NewDense(d.Dim(), 16)}
			if relu {
				layers = append(layers, nn.NewReLU(16))
			}
			return nn.HeInit(nn.NewSequential(append(layers, nn.NewDense(16, d.Classes))...), r)
		}
	}
	conv := func(pool bool) func() *nn.Sequential {
		return func() *nn.Sequential {
			r := rng.New(2)
			g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1}
			var mid nn.Layer[float64] = nn.NewReLU(2 * 4 * 4)
			if pool {
				g.Stride = 1
				mid = nn.NewMaxPool2(2, 8, 8)
			}
			return nn.HeInit(nn.NewSequential(nn.NewConv2D(g, 2), mid, nn.NewDense(2*4*4, d.Classes)), r)
		}
	}
	pairs := []struct {
		name          string
		first, second func() *nn.Sequential
	}{
		{"relu-then-linear", mlp(true), mlp(false)},
		{"maxpool-then-stride", conv(true), conv(false)},
	}
	visit := func(ts *TrainScratch, m *nn.Sequential) []float64 {
		loss := ts.LocalUpdate(m, d, clientCfg, rng.New(9))
		evalLoss, evalAcc := ts.Evaluate(m, d, 64)
		return append(nn.FlattenParams(m), loss, evalLoss, evalAcc)
	}
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			reused := TrainScratch{DType: Float32}
			visit(&reused, p.first())
			fresh := TrainScratch{DType: Float32}
			if !same(visit(&reused, p.second()), visit(&fresh, p.second())) {
				t.Error("TrainScratch kept the first architecture's float32 network for the second model")
			}
		})
	}
}
