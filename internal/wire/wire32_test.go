package wire

// Tests for the Quant8 degenerate-range contract, and the Float32 frame
// encode benchmark.

import (
	"bytes"
	"math"
	"testing"

	"fedclust/internal/rng"
)

func f32Vec(n int, seed uint64) []float32 {
	r := rng.New(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

func widen(v []float32) []float64 {
	w := make([]float64, len(v))
	for i, x := range v {
		w[i] = float64(x)
	}
	return w
}

// TestQuant8DegenerateRanges pins the clamping contract for inputs the
// linear quantizer cannot represent: constant vectors reconstruct
// exactly (min carries the value), and NaN/±Inf clamp deterministically
// into the finite range — same bytes every encode, always-finite
// decode — instead of feeding NaN through a float→byte conversion.
func TestQuant8DegenerateRanges(t *testing.T) {
	for _, c := range []float64{0, math.Copysign(0, -1), 1, -3.75, 1e-300, 1e300} {
		vec := []float64{c, c, c, c}
		dec, err := Decode(EncodeInto(nil, Quant8, vec))
		if err != nil {
			t.Fatalf("constant %g: %v", c, err)
		}
		for i, d := range dec {
			if d != c {
				t.Errorf("constant %g: value %d decoded to %g", c, i, d)
			}
		}
	}

	vec := []float64{1, math.NaN(), 4, math.Inf(1), 2, math.Inf(-1)}
	a, b := EncodeInto(nil, Quant8, vec), EncodeInto(nil, Quant8, vec)
	if !bytes.Equal(a, b) {
		t.Fatalf("Quant8 encode of non-finite input is not deterministic:\n %x\n %x", a, b)
	}
	dec, err := Decode(a)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, d := range dec {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("value %d decoded non-finite (%g) — the header must stay finite", i, d)
		}
	}
	// The finite range is [1, 4]: NaN and -Inf clamp to the bottom byte
	// (exactly lo), +Inf to the top, and finite values stay within half
	// a quantization step.
	if dec[1] != 1 || dec[5] != 1 {
		t.Errorf("NaN/-Inf decoded to %g/%g, want the range minimum 1", dec[1], dec[5])
	}
	if d := math.Abs(dec[3] - 4); d > 1e-12 {
		t.Errorf("+Inf decoded to %g, want the range maximum 4", dec[3])
	}
	step := (4.0 - 1.0) / 255
	for _, i := range []int{0, 2, 4} {
		if d := math.Abs(dec[i] - vec[i]); d > step/2+1e-12 {
			t.Errorf("finite value %g reconstructed as %g (err %g > step/2)", vec[i], dec[i], d)
		}
	}

	// No finite value at all: the range collapses to [0, 0] and the
	// result is still deterministic and finite.
	allBad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	a, b = EncodeInto(nil, Quant8, allBad), EncodeInto(nil, Quant8, allBad)
	if !bytes.Equal(a, b) {
		t.Fatalf("all-non-finite encode not deterministic:\n %x\n %x", a, b)
	}
	dec, err = Decode(a)
	if err != nil {
		t.Fatalf("all-non-finite decode: %v", err)
	}
	for i, d := range dec {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			t.Errorf("all-non-finite value %d decoded non-finite (%g)", i, d)
		}
	}
}

// A Float32 uplink frame of a full-size parameter vector trained in
// float32: widening is exact, so the encode's rounding reproduces the
// trained float32 bits.
const benchEncodeN = 1594 // MLP(64,20,4) parameter count

func BenchmarkEncodeFloat32From64(b *testing.B) {
	vec := widen(f32Vec(benchEncodeN, 9))
	dst := EncodeInto(nil, Float32, vec)
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = EncodeInto(dst[:0], Float32, vec)
	}
}
