package nn

import (
	"math"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// TestMirror32ForwardMatchesFloat64 pins the per-layer divergence
// contract at the model level: an eval-mode forward pass of a mirrored
// LeNet stays within float32 rounding of the float64 reference.
func TestMirror32ForwardMatchesFloat64(t *testing.T) {
	r := rng.New(49)
	net := LeNet5(r, 1, 12, 12, 3, 0.5)
	m := netOf[float32](t, net)
	x := randInput(r, 4, 144)
	y64 := net.Forward(x, false)
	y32 := m.Forward(tensorOf[float32](x), false)
	if y32.Shape[0] != y64.Shape[0] || y32.Shape[1] != y64.Shape[1] {
		t.Fatalf("shape mismatch %v vs %v", y32.Shape, y64.Shape)
	}
	for i := range y64.Data {
		diff := math.Abs(float64(y32.Data[i]) - y64.Data[i])
		scale := math.Abs(y64.Data[i]) + 1
		if diff/scale > 1e-4 {
			t.Fatalf("logit %d diverges: f32 %g vs f64 %g", i, y32.Data[i], y64.Data[i])
		}
	}
}

// TestMirror32RoundTripParams pins that AssignParams32 and then
// widening the mirror's vector back (tensor.Convert) is the exact float32
// rounding of the originals (widening is lossless), the property the
// zero-convert wire fast path relies on.
func TestMirror32RoundTripParams(t *testing.T) {
	r := rng.New(50)
	net := MLP(r, 6, 8, 3)
	m := Mirror32(net)
	AssignParams32(m, net)
	wide := make([]float64, m.NumParams())
	tensor.Convert(wide, m.ParamData())
	for i, v := range FlattenParams(net) {
		if want := float64(float32(v)); wide[i] != want {
			t.Fatalf("param %d: round-trip %g, want %g", i, wide[i], want)
		}
	}
}

// TestIsMirror32 pins the structural comparison a cached shadow is
// revalidated with: a mirror matches its source and any network of the
// same structure, and nothing that differs in a layer kind or a
// hyperparameter — including parameterless layers, which a comparison of
// parameter sizes cannot see.
func TestIsMirror32(t *testing.T) {
	g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	// build makes conv → relu → pool → dense (or conv → pool → relu →
	// dense) from parts, so each variant below changes exactly one of them.
	type parts struct {
		geom      tensor.ConvGeom
		outC      int
		poolFirst bool
		out       int
	}
	base := parts{g, 2, false, 3}
	build := func(p parts, seed uint64) *Sequential {
		r := rng.New(seed)
		conv := NewConv2D(p.geom, p.outC)
		pool := NewMaxPool2(p.outC, p.geom.OutH(), p.geom.OutW())
		mid := []Layer[float64]{NewReLU(conv.OutDim()), pool}
		if p.poolFirst {
			mid = []Layer[float64]{pool, NewReLU(pool.OutDim())}
		}
		layers := append(append([]Layer[float64]{conv}, mid...), NewDense(pool.OutDim(), p.out))
		return HeInit(NewSequential(layers...), r)
	}
	vary := func(f func(p *parts)) *Sequential {
		p := base
		f(&p)
		return build(p, 1)
	}
	src := build(base, 1)
	conv := NewConv2D(g, 2)
	sh := Mirror32(src)
	if !IsMirror32(sh, src) || !IsMirror32(sh, build(base, 2)) {
		t.Fatal("a mirror must match its source and any network of the same structure")
	}
	others := map[string]*Sequential{
		"pool before relu": vary(func(p *parts) { p.poolFirst = true }),
		"conv channels":    vary(func(p *parts) { p.outC = 4 }),
		"conv padding":     vary(func(p *parts) { p.geom.KH, p.geom.KW, p.geom.Pad = 5, 5, 2 }),
		"dense width":      vary(func(p *parts) { p.out = 4 }),
		"fewer layers":     NewSequential(conv, NewReLU(conv.OutDim()), NewMaxPool2(2, g.OutH(), g.OutW())),
	}
	for name, other := range others {
		if IsMirror32(sh, other) {
			t.Errorf("%s: a structurally different network passed as mirrored", name)
		}
		if osh := Mirror32(other); !IsMirror32(osh, other) || IsMirror32(osh, src) {
			t.Errorf("%s: its own mirror must match it and not the base network", name)
		}
	}
}
