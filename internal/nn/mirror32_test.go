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
