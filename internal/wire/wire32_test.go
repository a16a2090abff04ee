package wire

// Tests for the float32-source encode fast path and the Quant8
// degenerate-range contract. EncodeFloat32Into's whole claim is
// bit-identity with the widen-then-EncodeInto route — these tests pin
// the bytes, not just the decoded values, including NaN payloads and
// ±Inf where a sloppy double conversion could quietly differ.

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

func TestEncodeFloat32IntoBitIdentical(t *testing.T) {
	vecs := [][]float32{
		nil,
		{0},
		f32Vec(257, 3),
		{
			float32(math.Inf(1)), float32(math.Inf(-1)),
			math.Float32frombits(0x7fc00001), // quiet NaN with payload
			math.Float32frombits(0x80000000), // negative zero
			math.MaxFloat32, -math.SmallestNonzeroFloat32,
		},
	}
	for _, v := range vecs {
		fast := EncodeFloat32Into(nil, v)
		slow := EncodeInto(nil, Float32, widen(v))
		if !bytes.Equal(fast, slow) {
			t.Errorf("EncodeFloat32Into diverged from widen+EncodeInto for %d values:\n got %x\nwant %x",
				len(v), fast, slow)
		}
		dec, err := Decode(fast)
		if err != nil {
			t.Fatalf("decode of fast-path frame: %v", err)
		}
		for i := range v {
			if math.Float32bits(float32(dec[i])) != math.Float32bits(v[i]) {
				t.Errorf("value %d: decoded bits %#x, want %#x", i,
					math.Float32bits(float32(dec[i])), math.Float32bits(v[i]))
			}
		}
	}
}

// TestEncodeFloat32IntoMidBuffer checks the append contract: the frame
// may land after other bytes and its checksum covers only its own.
func TestEncodeFloat32IntoMidBuffer(t *testing.T) {
	v := f32Vec(9, 5)
	prefix := []byte{0xde, 0xad, 0xbe, 0xef}
	buf := EncodeFloat32Into(append([]byte(nil), prefix...), v)
	if !bytes.Equal(buf[:len(prefix)], prefix) {
		t.Fatal("prefix bytes were overwritten")
	}
	if !bytes.Equal(buf[len(prefix):], EncodeFloat32Into(nil, v)) {
		t.Error("mid-buffer frame differs from a fresh encode")
	}
}

func TestEncodeFloat32IntoZeroAlloc(t *testing.T) {
	v := f32Vec(512, 7)
	dst := EncodeFloat32Into(nil, v)
	allocs := testing.AllocsPerRun(100, func() {
		dst = EncodeFloat32Into(dst[:0], v)
	})
	if allocs != 0 {
		t.Errorf("warm EncodeFloat32Into allocated %.1f times per call", allocs)
	}
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

// The float32-source encode pair: the uplink fast path holds float32
// shadow parameters, so the benchmark question is what skipping the
// widen-and-round trip is worth on a full-size parameter vector.
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

func BenchmarkEncodeFloat32From32(b *testing.B) {
	vec := f32Vec(benchEncodeN, 9)
	dst := EncodeFloat32Into(nil, vec)
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = EncodeFloat32Into(dst[:0], vec)
	}
}
