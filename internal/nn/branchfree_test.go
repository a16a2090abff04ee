package nn

import (
	"math"
	"testing"

	"fedclust/internal/tensor"
)

// The oracles below are the branchy ReLU and MaxPool2 bodies the
// branch-free ones replaced. They select values and do no arithmetic, so
// the new bodies must reproduce every output bit and every argmax.

func reluForwardOracle[T tensor.Float](x []T) (out []T, mask []bool) {
	out, mask = make([]T, len(x)), make([]bool, len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
			mask[i] = true
		} else {
			out[i] = 0
			mask[i] = false
		}
	}
	return out, mask
}

func reluBackwardOracle[T tensor.Float](mask []bool, g []T) []T {
	gx := make([]T, len(g))
	for i, v := range g {
		if mask[i] {
			gx[i] = v
		} else {
			gx[i] = 0
		}
	}
	return gx
}

func maxPoolForwardOracle[T tensor.Float](in []T, c, h, w int) (out []T, argmax []int) {
	oh, ow := h/2, w/2
	out, argmax = make([]T, c*oh*ow), make([]int, c*oh*ow)
	for ch := 0; ch < c; ch++ {
		inBase, outBase := ch*h*w, ch*oh*ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				i00 := inBase + (2*oy)*w + 2*ox
				i01 := i00 + 1
				i10 := i00 + w
				i11 := i10 + 1
				bi, bv := i00, in[i00]
				if in[i01] > bv {
					bi, bv = i01, in[i01]
				}
				if in[i10] > bv {
					bi, bv = i10, in[i10]
				}
				if in[i11] > bv {
					bi, bv = i11, in[i11]
				}
				oi := outBase + oy*ow + ox
				out[oi] = bv
				argmax[oi] = bi
			}
		}
	}
	return out, argmax
}

// bitsOf is v's IEEE-754 encoding in its own width.
func bitsOf[T tensor.Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// edgeValues are the inputs where a select can go wrong: both zeros, both
// infinities, NaNs of either sign with a payload, subnormals of both
// widths (each is a subnormal in its own dtype; in the other it is a
// normal number or flushes to ±0), the extremes and plain values.
func edgeValues[T tensor.Float]() []T {
	f64 := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -2.5,
		math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xfff8_0000_0000_0001),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		float64(math.Float32frombits(0x007f_ffff)),
		math.MaxFloat32, -math.MaxFloat32,
	}
	out := make([]T, len(f64))
	for i, v := range f64 {
		out[i] = T(v)
	}
	return out
}

// TestReLUMatchesBranchyOracle: Forward and Backward equal the branchy
// bodies bit for bit on every (input, gradient) pair of edge values, NaN
// and ±Inf gradients included.
func TestReLUMatchesBranchyOracle(t *testing.T) {
	bothTypes(t, testReLUMatchesBranchyOracle[float64], testReLUMatchesBranchyOracle[float32])
}

func testReLUMatchesBranchyOracle[T tensor.Float](t *testing.T) {
	vals := edgeValues[T]()
	n := len(vals)
	x, g := tensor.NewOf[T](n, n), tensor.NewOf[T](n, n)
	for i, xv := range vals {
		for j, gv := range vals {
			x.Data[i*n+j], g.Data[i*n+j] = xv, gv
		}
	}
	wantOut, mask := reluForwardOracle(x.Data)
	wantGx := reluBackwardOracle(mask, g.Data)

	r := &ReLU[T]{dim: n}
	out := r.Forward(x, true)
	for i, v := range out.Data {
		if bitsOf(v) != bitsOf(wantOut[i]) {
			t.Fatalf("Forward(%v) = %v (bits %#x), oracle %v (bits %#x)", x.Data[i], v, bitsOf(v), wantOut[i], bitsOf(wantOut[i]))
		}
	}
	gx := r.Backward(g)
	for i, v := range gx.Data {
		if bitsOf(v) != bitsOf(wantGx[i]) {
			t.Fatalf("Backward at x=%v, g=%v: %v (bits %#x), oracle %v (bits %#x)", x.Data[i], g.Data[i], v, bitsOf(v), wantGx[i], bitsOf(wantGx[i]))
		}
	}
}

// TestMaxPool2MatchesBranchyOracle: Forward equals the branchy body in
// every output bit and every argmax, over every window drawn from a set
// of values with NaN, infinities, both zeros and the smallest float32
// subnormal — so a NaN and a tie sit in each of the four slots, and
// all-equal windows occur — and on a multi-channel volume over the same
// values. Backward routes each gradient to that argmax.
func TestMaxPool2MatchesBranchyOracle(t *testing.T) {
	bothTypes(t, testMaxPool2MatchesBranchyOracle[float64], testMaxPool2MatchesBranchyOracle[float32])
}

func testMaxPool2MatchesBranchyOracle[T tensor.Float](t *testing.T) {
	nan := T(math.NaN())
	tiny := T(math.SmallestNonzeroFloat32)
	set := []T{nan, T(math.Inf(-1)), -1, T(math.Copysign(0, -1)), 0, tiny, 1, T(math.Inf(1))}
	k := len(set)
	// Every window: channel ch of a (k⁴)×2×2 volume is window ch.
	windows := make([]T, 0, 4*k*k*k*k)
	for a := range set {
		for b := range set {
			for c := range set {
				for d := range set {
					windows = append(windows, set[a], set[b], set[c], set[d])
				}
			}
		}
	}
	// A 3×6×8 volume cycling through the set, two rows of a batch.
	volume := make([]T, 2*3*6*8)
	for i := range volume {
		volume[i] = set[(i*5+i/7)%k]
	}
	for _, tc := range []struct {
		c, h, w, batch int
		data           []T
	}{
		{k * k * k * k, 2, 2, 1, windows},
		{3, 6, 8, 2, volume},
	} {
		p := &MaxPool2[T]{C: tc.c, H: tc.h, W: tc.w}
		inDim := p.InDim()
		x := &tensor.Of[T]{Data: tc.data, Shape: []int{tc.batch, inDim}}
		out := p.Forward(x, true)
		g := tensor.NewOf[T](tc.batch, p.OutDim())
		for i := range g.Data {
			g.Data[i] = T(i + 1)
		}
		gx := p.Backward(g)
		for b := 0; b < tc.batch; b++ {
			wantOut, wantArg := maxPoolForwardOracle(x.Row(b), tc.c, tc.h, tc.w)
			wantGx := make([]T, inDim)
			for oi, bi := range wantArg {
				wantGx[bi] += g.Row(b)[oi]
			}
			for oi, v := range out.Row(b) {
				if bitsOf(v) != bitsOf(wantOut[oi]) || p.argmax[b*p.OutDim()+oi] != wantArg[oi] {
					t.Fatalf("%dx%dx%d row %d output %d: %v at %d, oracle %v at %d", tc.c, tc.h, tc.w, b, oi,
						v, p.argmax[b*p.OutDim()+oi], wantOut[oi], wantArg[oi])
				}
			}
			for i, v := range gx.Row(b) {
				if bitsOf(v) != bitsOf(wantGx[i]) {
					t.Fatalf("%dx%dx%d row %d: input gradient %d = %v, want %v", tc.c, tc.h, tc.w, b, i, v, wantGx[i])
				}
			}
		}
	}
}
