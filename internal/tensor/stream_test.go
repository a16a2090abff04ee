package tensor_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// The momentum SGD and conversion streams are held to their Go bodies on
// bits: a window run through the current kernel path must equal the same
// window run on the Go bodies, and no element outside it may change. The
// update compares NaN as NaN-ness (which of two NaN operands an x86 add
// returns is the one thing operand order shows); a conversion has one
// operand, so its NaNs must match on every bit too. The Go bodies' run is
// itself held to the loop it stands for, written out here, so a fault in
// the dispatch that both paths share (where the Go tail starts) fails
// too.

// streamParams is B's model size: the 256-128-64-8 MLP's parameters.
const streamParams = 41672

// streamValues fills v with normal draws of a spread of magnitudes and,
// one in four, a special value of T: ±0, ±Inf, NaNs of several payloads,
// subnormals, the largest finite values (whose products overflow) and
// values that round differently in the other width.
func streamValues[T tensor.Float](r *rng.Rng, v []T) {
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
		math.Float64frombits(0xfff8_dead_beef_0001), // negative quiet NaN with a payload
		math.SmallestNonzeroFloat64, -2.5e-310,
		math.SmallestNonzeroFloat32, -1e-40, 1.5e-45, // float32 subnormals, and one that rounds to zero there
		math.MaxFloat64, -math.MaxFloat64, math.MaxFloat32, -math.MaxFloat32, 3.5e38, // 3.5e38 is +Inf as a float32
		1 + 0x1p-24, 1 + 0x1p-23 + 0x1p-24, // ties to even in float32
	}
	for i := range v {
		if r.Intn(4) == 0 {
			v[i] = T(special[r.Intn(len(special))])
			continue
		}
		v[i] = T(r.NormFloat64() * math.Pow(10, float64(r.Intn(13)-6)))
	}
}

// streamLanes is T's vector width: 4 float64s, 8 float32s.
func streamLanes[T tensor.Float]() int {
	var z T
	if _, ok := any(z).(float32); ok {
		return 8
	}
	return 4
}

// streamLengths are 0 … 2·lanes+1 and B's parameter count.
func streamLengths(lanes int) []int {
	var ns []int
	for n := 0; n <= 2*lanes+1; n++ {
		ns = append(ns, n)
	}
	return append(ns, streamParams)
}

// momentumHyper are (lr, momentum, weight decay) triples: the runs' own,
// no weight decay, products past the range, and products in the
// subnormals.
var momentumHyper = [][3]float64{
	{0.1, 0.9, 1e-4}, {0.05, 0.5, 0}, {3, 0.99, 2.5}, {1e-30, 1e-20, 1e-38},
}

// checkMomentum runs one MomentumStep on the window [off, off+n) of
// three buffers with lanes of guard on each side, on the current path
// and on the Go bodies, and compares every element of the buffers.
func checkMomentum[T tensor.Float](t *testing.T, what string, w, g, v []T, off, n int, lr, mom, wd T) {
	t.Helper()
	run := func() (w2, v2 []T) {
		w2, v2 = append([]T(nil), w...), append([]T(nil), v...)
		tensor.MomentumStep(w2[off:off+n], g[off:off+n], v2[off:off+n], lr, mom, wd)
		return w2, v2
	}
	var wantW, wantV []T
	goBody(func() { wantW, wantV = run() })
	specW, specV := append([]T(nil), w...), append([]T(nil), v...)
	for j := off; j < off+n; j++ { // opt.SGD's momentum loop
		eff := g[j] + T(wd*specW[j])
		specV[j] = T(mom*specV[j]) + eff
		specW[j] -= T(lr * specV[j])
	}
	sameBitsOrNaN(t, what+" w (Go body)", wantW, specW)
	sameBitsOrNaN(t, what+" v (Go body)", wantV, specV)
	gotW, gotV := run()
	sameBitsOrNaN(t, what+" w", gotW, wantW)
	sameBitsOrNaN(t, what+" v", gotV, wantV)
	for i := range w {
		if i < off || i >= off+n {
			if bitsOf(gotW[i]) != bitsOf(w[i]) || bitsOf(gotV[i]) != bitsOf(v[i]) {
				t.Fatalf("%s: element %d outside the window [%d, %d) changed", what, i, off, off+n)
			}
		}
	}
}

// TestMomentumStepMatchesGoBody: in both dtypes on both kernel paths,
// every length from 0 to two vectors and one, and B's model size, each
// window cut at every offset modulo the lane width, under each
// hyperparameter set: w and v equal the Go body's bit for bit (NaN
// exactly where it is NaN), and nothing outside the window moves.
func TestMomentumStepMatchesGoBody(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		t.Run("float64", testMomentumStepMatchesGoBody[float64])
		t.Run("float32", testMomentumStepMatchesGoBody[float32])
	})
}

func testMomentumStepMatchesGoBody[T tensor.Float](t *testing.T) {
	r := rng.New(47)
	lanes := streamLanes[T]()
	for _, n := range streamLengths(lanes) {
		w, g, v := make([]T, n+2*lanes), make([]T, n+2*lanes), make([]T, n+2*lanes)
		for off := 0; off < lanes; off++ {
			streamValues(r, w)
			streamValues(r, g)
			streamValues(r, v)
			for _, hp := range momentumHyper {
				checkMomentum(t, fmt.Sprintf("n=%d off=%d hp=%v", n, off, hp), w, g, v, off, n, T(hp[0]), T(hp[1]), T(hp[2]))
			}
		}
	}
}

// checkConvert converts the window [off, off+n) of src into the window
// [doff, doff+n) of a guarded dst, on the current path and on the Go
// bodies, and compares every element of dst on bits.
func checkConvert[D, S tensor.Float](t *testing.T, what string, src []S, off, doff, n int) {
	t.Helper()
	run := func() []D {
		dst := make([]D, n+2*8)
		for i := range dst {
			dst[i] = D(-7)
		}
		tensor.Convert(dst[doff:doff+n], src[off:off+n])
		return dst
	}
	var want []D
	goBody(func() { want = run() })
	for i, x := range src[off : off+n] {
		if spec := D(x); bitsOf(want[doff+i]) != bitsOf(spec) {
			t.Fatalf("%s: Go body element %d = %v, D(src) = %v", what, i, want[doff+i], spec)
		}
	}
	sameBitsAll(t, what, run(), want)
	for i, x := range want {
		if (i < doff || i >= doff+n) && x != -7 {
			t.Fatalf("%s: dst element %d outside the window [%d, %d) written", what, i, doff, doff+n)
		}
	}
}

// TestConvertMatchesGoBody: both directions on both kernel paths, every
// length from 0 to two vectors and one, and B's model size, source and
// destination windows cut at every offset modulo the lane width: dst
// equals the Go body's bit for bit, NaN payloads included, and nothing
// outside its window is written.
func TestConvertMatchesGoBody(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		r := rng.New(53)
		for _, n := range streamLengths(8) {
			wide, narrow := make([]float64, n+8), make([]float32, n+8)
			for off := 0; off < 8; off++ {
				streamValues(r, wide)
				streamValues(r, narrow)
				doff := (off * 3) % 8
				checkConvert[float32](t, fmt.Sprintf("f64→f32 n=%d off=%d/%d", n, off, doff), wide, off, doff, n)
				checkConvert[float64](t, fmt.Sprintf("f32→f64 n=%d off=%d/%d", n, off, doff), narrow, off, doff, n)
			}
		}
	})
}

// fuzzFloats decodes n values of T from bits in T's own width, starting
// at value start and cycling through the bytes.
func fuzzFloats[T tensor.Float](bits []byte, start, n int) []T {
	out := make([]T, n)
	if len(bits) == 0 {
		return out
	}
	size := 32 / streamLanes[T]() // bytes per value
	for i := range out {
		var w [8]byte
		for b := range size {
			w[b] = bits[(size*(start+i)+b)%len(bits)]
		}
		switch p := any(&out[i]).(type) {
		case *float32:
			*p = math.Float32frombits(binary.LittleEndian.Uint32(w[:]))
		case *float64:
			*p = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
		}
	}
	return out
}

// FuzzSGDStream decodes a length, a window offset, the three
// hyperparameters and w, g and v from arbitrary bits, in each dtype's
// own width, and holds the current path to the Go body.
func FuzzSGDStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, off := int(data[0])%70, int(data[1])%8
		fuzzMomentum[float64](t, data[2:], n, off)
		fuzzMomentum[float32](t, data[2:], n, off)
	})
}

func fuzzMomentum[T tensor.Float](t *testing.T, bits []byte, n, off int) {
	m := off + n + 8
	hp := fuzzFloats[T](bits, 0, 3)
	w, g, v := fuzzFloats[T](bits, 3, m), fuzzFloats[T](bits, 3+m, m), fuzzFloats[T](bits, 3+2*m, m)
	checkMomentum(t, "fuzz", w, g, v, off, n, hp[0], hp[1], hp[2])
}

// FuzzConvertStream decodes a length, a source and a destination window
// offset and the source values from arbitrary bits, and holds both
// directions on the current path to the Go body.
func FuzzConvertStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, off, doff := int(data[0])%70, int(data[1])%8, int(data[1]>>3)%8
		checkConvert[float32](t, "fuzz f64→f32", fuzzFloats[float64](data[2:], 0, off+n), off, doff, n)
		checkConvert[float64](t, "fuzz f32→f64", fuzzFloats[float32](data[2:], 0, off+n), off, doff, n)
	})
}

// BenchmarkConvert times one conversion of B's model vector in each
// direction — the two passes a Float32 visit makes over the model, which
// no bench/ rung times on its own.
func BenchmarkConvert(b *testing.B) {
	r := rng.New(1)
	wide, narrow := make([]float64, streamParams), make([]float32, streamParams)
	for i := range wide {
		wide[i] = r.NormFloat64()
		narrow[i] = float32(r.NormFloat64())
	}
	b.Run("f64-to-f32", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(12 * streamParams)
		for b.Loop() {
			tensor.Convert(narrow, wide)
		}
	})
	b.Run("f32-to-f64", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(12 * streamParams)
		for b.Loop() {
			tensor.Convert(wide, narrow)
		}
	})
}
