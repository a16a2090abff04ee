package wire

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
	"testing/quick"

	"fedclust/internal/rng"
)

func randVec(r *rng.Rng, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func TestFloat64RoundTripExact(t *testing.T) {
	v := []float64{0, 1, -1, math.Pi, 1e-300, -1e300}
	got, err := Decode(EncodeInto(nil, Float64, v))
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("float64 round trip lossy at %d: %v != %v", i, got[i], v[i])
		}
	}
}

func TestFloat32RoundTripWithinTolerance(t *testing.T) {
	r := rng.New(1)
	v := randVec(r, 1000)
	got, err := Decode(EncodeInto(nil, Float32, v))
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if math.Abs(got[i]-v[i]) > 1e-6*(1+math.Abs(v[i])) {
			t.Fatalf("float32 error too large at %d: %v vs %v", i, got[i], v[i])
		}
	}
}

func TestQuant8ErrorBound(t *testing.T) {
	r := rng.New(2)
	v := randVec(r, 1000)
	lo, hi := rangeOf(v)
	bound := (hi - lo) / 255 / 2 * 1.0001
	if e := MaxError(Quant8, v); e > bound {
		t.Fatalf("quant8 error %v exceeds half-step bound %v", e, bound)
	}
}

func TestQuant8ConstantVector(t *testing.T) {
	v := []float64{3.5, 3.5, 3.5}
	got, err := Decode(EncodeInto(nil, Quant8, v))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range got {
		if x != 3.5 {
			t.Fatalf("constant vector decoded to %v", got)
		}
	}
}

func TestEncodedSizeMatchesActual(t *testing.T) {
	r := rng.New(3)
	for _, c := range []Codec{Float64, Float32, Quant8} {
		for _, n := range []int{0, 1, 7, 100} {
			frame := EncodeInto(nil, c, randVec(r, n))
			if len(frame) != EncodedSize(c, n) {
				t.Fatalf("%s n=%d: frame %d bytes, EncodedSize %d", c, n, len(frame), EncodedSize(c, n))
			}
		}
	}
}

func TestCompressionRatios(t *testing.T) {
	n := 10000
	f64 := EncodedSize(Float64, n)
	f32 := EncodedSize(Float32, n)
	q8 := EncodedSize(Quant8, n)
	if !(q8 < f32 && f32 < f64) {
		t.Fatalf("size ordering violated: q8=%d f32=%d f64=%d", q8, f32, f64)
	}
	if ratio := float64(f64) / float64(q8); ratio < 7.5 {
		t.Fatalf("quant8 ratio %v, want ~8x", ratio)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	r := rng.New(4)
	frame := EncodeInto(nil, Float32, randVec(r, 50))
	// Flip a payload byte: checksum must catch it.
	bad := append([]byte(nil), frame...)
	bad[headerLen+3] ^= 0xff
	if _, err := Decode(bad); err == nil {
		t.Fatal("corrupted payload not rejected")
	}
	// Truncation.
	if _, err := Decode(frame[:len(frame)-5]); err == nil {
		t.Fatal("truncated frame not rejected")
	}
	// Bad magic.
	bad2 := append([]byte(nil), frame...)
	bad2[0] = 0
	if _, err := Decode(bad2); err == nil {
		t.Fatal("bad magic not rejected")
	}
	// Empty.
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty frame not rejected")
	}
	// Unknown codec (re-checksummed so only the codec check can fail).
	bad3 := append([]byte(nil), frame...)
	bad3[2] = 99
	bad3 = reChecksum(bad3)
	if _, err := Decode(bad3); err == nil {
		t.Fatal("unknown codec not rejected")
	}
}

func reChecksum(frame []byte) []byte {
	body := append([]byte(nil), frame[:len(frame)-4]...)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8, codecRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw) % 200
		c := Codec(codecRaw % 3)
		v := randVec(r, n)
		dec, err := Decode(EncodeInto(nil, c, v))
		if err != nil || len(dec) != n {
			return false
		}
		lo, hi := rangeOf(v)
		var tol float64
		switch c {
		case Float64:
			tol = 0
		case Float32:
			tol = 1e-5 * (1 + math.Max(math.Abs(lo), math.Abs(hi)))
		case Quant8:
			tol = (hi-lo)/255 + 1e-12
		}
		for i := range v {
			if math.Abs(dec[i]-v[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripWithinMaxError: for every codec, Decode(EncodeInto(nil, c, v))
// reconstructs each value within MaxError(c, v) — the bound the
// compression ablation reports is the bound the codecs actually keep.
func TestRoundTripWithinMaxError(t *testing.T) {
	f := func(seed uint64, nRaw uint8, codecRaw uint8) bool {
		r := rng.New(seed)
		n := 1 + int(nRaw)%200
		c := Codec(codecRaw % 3)
		v := randVec(r, n)
		bound := MaxError(c, v)
		dec, err := Decode(EncodeInto(nil, c, v))
		if err != nil || len(dec) != n {
			return false
		}
		for i := range v {
			if math.Abs(dec[i]-v[i]) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Edge vectors the normal draws miss: constants, extremes, denormals.
	for _, v := range [][]float64{
		{0}, {42.5, 42.5, 42.5}, {-1e300, 1e300}, {5e-324, -5e-324, 0}, {1e-12, 1, 1e12},
	} {
		for _, c := range []Codec{Float64, Float32, Quant8} {
			bound := MaxError(c, v)
			dec, err := Decode(EncodeInto(nil, c, v))
			if err != nil {
				t.Fatalf("%s %v: %v", c, v, err)
			}
			for i := range v {
				if math.Abs(dec[i]-v[i]) > bound {
					t.Fatalf("%s: |%v - %v| exceeds MaxError %v", c, dec[i], v[i], bound)
				}
			}
		}
	}
}

// TestEncodeIntoMidBuffer: a frame appended after other bytes must decode
// identically to a standalone Encode — transports append frames directly
// after their message headers.
func TestEncodeIntoMidBuffer(t *testing.T) {
	v := randVec(rng.New(5), 64)
	for _, c := range []Codec{Float64, Float32, Quant8} {
		prefix := []byte{0xde, 0xad, 0xbe, 0xef}
		buf := EncodeInto(append([]byte(nil), prefix...), c, v)
		standalone := EncodeInto(nil, c, v)
		if string(buf[len(prefix):]) != string(standalone) {
			t.Fatalf("%s: mid-buffer frame differs from standalone", c)
		}
		dec, err := Decode(buf[len(prefix):])
		if err != nil {
			t.Fatal(err)
		}
		dec2, err := Decode(standalone)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dec {
			if dec[i] != dec2[i] {
				t.Fatalf("%s: mid-buffer decode diverged at %d", c, i)
			}
		}
	}
}

func TestCodecString(t *testing.T) {
	if Float64.String() != "float64" || Float32.String() != "float32" || Quant8.String() != "quant8" {
		t.Fatal("codec names wrong")
	}
}

func BenchmarkEncodeQuant8(b *testing.B) {
	v := randVec(rng.New(1), 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EncodeInto(nil, Quant8, v)
	}
}

func BenchmarkDecodeFloat32(b *testing.B) {
	frame := EncodeInto(nil, Float32, randVec(rng.New(1), 10000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Decode(frame)
	}
}
