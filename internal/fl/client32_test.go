package fl

import (
	"math"
	"testing"

	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
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
	if !ts32.ranF32 {
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

// TestParams32RoundTrip pins the zero-convert contract end to end at
// the fl layer: after a float32 LocalUpdate, the shadow's flat vector
// must equal float32(model parameter) bit for bit — exactly the bytes a
// Float32 wire frame of the widened model would carry.
func TestParams32RoundTrip(t *testing.T) {
	d := benchDataset(40)
	m := nn.MLP(rng.New(1), d.Dim(), 20, d.Classes)
	ts := TrainScratch{DType: Float32}
	ts.LocalUpdate(m, d, clientCfg, rng.New(5))
	vec, ok := ts.Params32()
	if !ok {
		t.Fatal("Params32 not available after a float32 LocalUpdate")
	}
	flat := nn.FlattenParams(m)
	if len(vec) != len(flat) {
		t.Fatalf("Params32 length %d, model has %d", len(vec), len(flat))
	}
	for i := range flat {
		if want := float32(flat[i]); vec[i] != want {
			t.Fatalf("param %d: shadow %x vs rounded model %x",
				i, math.Float32bits(vec[i]), math.Float32bits(want))
		}
	}
	// A float64 visit (or an eval) invalidates the shadow's claim.
	ts.DType = Float64
	ts.LocalUpdate(m, d, clientCfg, rng.New(6))
	if _, ok := ts.Params32(); ok {
		t.Fatal("Params32 still claimed after a float64 LocalUpdate")
	}
}

// oddLayer is a Layer with no float32 mirror, for the fallback test.
type oddLayer struct{ dim int }

func (o *oddLayer) Name() string                                        { return "odd" }
func (o *oddLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }
func (o *oddLayer) Backward(g *tensor.Tensor) *tensor.Tensor            { return g }
func (o *oddLayer) Params() []*tensor.Tensor                            { return nil }
func (o *oddLayer) Grads() []*tensor.Tensor                             { return nil }
func (o *oddLayer) OutDim() int                                         { return o.dim }

// TestLocalUpdate32FallsBackOnUnmirrorable pins the compatibility
// contract: an architecture Mirror32 cannot handle silently trains on
// the float64 path with results bit-identical to a float64 scratch.
func TestLocalUpdate32FallsBackOnUnmirrorable(t *testing.T) {
	d := benchDataset(40)
	build := func() *nn.Sequential {
		r := rng.New(1)
		return nn.NewSequential(nn.NewDense(d.Dim(), 20, r), &oddLayer{dim: 20}, nn.NewDense(20, d.Classes, r))
	}
	m64, m32 := build(), build()
	var ts64 TrainScratch
	ts32 := TrainScratch{DType: Float32}
	loss64 := ts64.LocalUpdate(m64, d, clientCfg, rng.New(8))
	loss32 := ts32.LocalUpdate(m32, d, clientCfg, rng.New(8))
	if ts32.ranF32 {
		t.Fatal("float32 path claimed an unmirrorable architecture")
	}
	if loss64 != loss32 {
		t.Fatalf("fallback loss differs: %g vs %g", loss64, loss32)
	}
	w64, w32 := nn.FlattenParams(m64), nn.FlattenParams(m32)
	for i := range w64 {
		if w64[i] != w32[i] {
			t.Fatalf("fallback param %d differs", i)
		}
	}
}

// TestFloat32ShadowFollowsArchitecture is the regression test for shadow
// reuse keyed on parameter sizes alone: two architectures whose
// parameter tensors line up (ReLU vs Tanh between the same Dense layers;
// max- vs average-pooling after the same convolution) must not share a
// float32 shadow. The second model on a reused TrainScratch, and on a
// reused evaluation worker slot, must behave exactly as on a fresh one.
func TestFloat32ShadowFollowsArchitecture(t *testing.T) {
	d := benchDataset(40)
	mlp := func(act func(dim int) nn.Layer[float64]) func() *nn.Sequential {
		return func() *nn.Sequential {
			r := rng.New(1)
			return nn.NewSequential(nn.NewDense(d.Dim(), 16, r), act(16), nn.NewDense(16, d.Classes, r))
		}
	}
	conv := func(pool func(c, h, w int) nn.Layer[float64]) func() *nn.Sequential {
		return func() *nn.Sequential {
			r := rng.New(2)
			g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
			c := nn.NewConv2D(g, 2, r)
			return nn.NewSequential(c, pool(2, 8, 8), nn.NewDense(2*4*4, d.Classes, r))
		}
	}
	pairs := []struct {
		name          string
		first, second func() *nn.Sequential
	}{
		{"relu-then-tanh",
			mlp(func(dim int) nn.Layer[float64] { return nn.NewReLU(dim) }),
			mlp(func(dim int) nn.Layer[float64] { return nn.NewTanh(dim) })},
		{"maxpool-then-avgpool",
			conv(func(c, h, w int) nn.Layer[float64] { return nn.NewMaxPool2(c, h, w) }),
			conv(func(c, h, w int) nn.Layer[float64] { return nn.NewAvgPool2(c, h, w) })},
	}
	visit := func(ts *TrainScratch, m *nn.Sequential) []float64 {
		loss := ts.LocalUpdate(m, d, clientCfg, rng.New(9))
		evalLoss, evalAcc := ts.Evaluate(m, d, 64)
		return append(nn.FlattenParams(m), loss, evalLoss, evalAcc)
	}
	evalOnly := func(env *Env, m *nn.Sequential) []float64 {
		_, acc, loss := env.EvaluateWithInto(nil, func(int, int) *nn.Sequential { return m })
		return []float64{acc, loss}
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
				t.Error("TrainScratch kept the first architecture's float32 shadow for the second model")
			}

			newEnv := func() *Env {
				return &Env{Clients: []*Client{{ID: 0, Train: d, Test: d}}, Workers: 1, DType: Float32}
			}
			reusedEnv := newEnv()
			evalOnly(reusedEnv, p.first())
			if !same(evalOnly(reusedEnv, p.second()), evalOnly(newEnv(), p.second())) {
				t.Error("evaluation worker slot kept the first architecture's float32 shadow for the second model")
			}
		})
	}
}
