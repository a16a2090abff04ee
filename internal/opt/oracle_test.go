package opt

import (
	"fmt"
	"math"
	"testing"

	"fedclust/internal/tensor"
)

// sgdStepOracle is SGD.Step before its loops read hoisted slices and
// before its velocity was one buffer: every element access goes through
// the tensors' Data fields, and *velocity holds one tensor per parameter.
func sgdStepOracle[T tensor.Float](s *SGD[T], velocity *[]*tensor.Of[T], params, grads []*tensor.Of[T]) {
	if s.Momentum > 0 && (*velocity == nil || len(*velocity) != len(params)) {
		*velocity = make([]*tensor.Of[T], len(params))
		for i, p := range params {
			(*velocity)[i] = tensor.NewOf[T](p.Shape...)
		}
	}
	lr, mom, wd := T(s.LR), T(s.Momentum), T(s.WeightDecay)
	for i, p := range params {
		g := grads[i]
		if s.Momentum > 0 {
			v := (*velocity)[i]
			for j := range p.Data {
				eff := g.Data[j] + T(wd*p.Data[j])
				v.Data[j] = T(mom*v.Data[j]) + eff
				p.Data[j] -= T(lr * v.Data[j])
			}
		} else {
			for j := range p.Data {
				eff := g.Data[j] + T(wd*p.Data[j])
				p.Data[j] -= T(lr * eff)
			}
		}
	}
}

// addProximalOracle is AddProximal before its loop reads hoisted slices
// and before it took flat vectors: one tensor per parameter.
func addProximalOracle[T tensor.Float](params, grads []*tensor.Of[T], ref []T, mu float64) {
	muT := T(mu)
	off := 0
	for i, p := range params {
		g := grads[i]
		for j := range p.Data {
			g.Data[j] += T(muT * (p.Data[j] - ref[off+j]))
		}
		off += p.Size()
	}
}

// specials are the operands the equality tests mix into every tensor:
// signed zeros, infinities, NaN and the subnormal extremes of T.
func specials[T tensor.Float]() []T {
	var z T
	minSub, maxSub := math.SmallestNonzeroFloat64, math.Float64frombits(0x000f_ffff_ffff_ffff)
	if _, f32 := any(z).(float32); f32 {
		minSub = float64(math.Float32frombits(1))
		maxSub = float64(math.Float32frombits(0x007f_ffff))
	}
	return []T{0, T(math.Copysign(0, -1)), T(math.Inf(1)), T(math.Inf(-1)), T(math.NaN()),
		T(minSub), T(-minSub), T(maxSub), T(-maxSub)}
}

// oracleTensors returns two tensors of the given shapes holding a smooth
// ramp with the specials spread through it; salt varies the mix.
func oracleTensors[T tensor.Float](salt int) []*tensor.Of[T] {
	sp := specials[T]()
	out := []*tensor.Of[T]{tensor.NewOf[T](7, 5), tensor.NewOf[T](13)}
	for ti, x := range out {
		for j := range x.Data {
			x.Data[j] = T(math.Sin(float64(3*j + 5*ti + salt)))
			if (j+salt)%4 == 0 {
				x.Data[j] = sp[(j/4+salt+ti)%len(sp)]
			}
		}
	}
	return out
}

func cloneTensors[T tensor.Float](ts []*tensor.Of[T]) []*tensor.Of[T] {
	out := make([]*tensor.Of[T], len(ts))
	for i, x := range ts {
		out[i] = tensor.FromSlice(append([]T(nil), x.Data...), x.Shape...)
	}
	return out
}

// flat concatenates the tensors' values.
func flat[T tensor.Float](ts []*tensor.Of[T]) []T {
	var out []T
	for _, x := range ts {
		out = append(out, x.Data...)
	}
	return out
}

// sameBits describes the first element whose bits differ, or is "".
func sameBits[T tensor.Float](a, b []T) string {
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return fmt.Sprintf("element %d: %v, oracle %v", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("%d elements, oracle %d", len(a), len(b))
	}
	return ""
}

// TestSGDStepMatchesOracle: over three steps, Step leaves the parameters
// and velocities of the oracle bit for bit, in both dtypes, with
// momentum 0 and 0.9, weight decay 0 and 0.01, and signed zeros,
// infinities, NaN and subnormals among the parameters and gradients.
func TestSGDStepMatchesOracle(t *testing.T) {
	bothTypes(t, testSGDStepMatchesOracle[float64], testSGDStepMatchesOracle[float32])
}

func testSGDStepMatchesOracle[T tensor.Float](t *testing.T) {
	for _, mom := range []float64{0, 0.9} {
		for _, wd := range []float64{0, 0.01} {
			got, want := newSGD[T](0.05, mom, wd), newSGD[T](0.05, mom, wd)
			var velocity []*tensor.Of[T]
			p := oracleTensors[T](1)
			q := cloneTensors(p)
			for step := 0; step < 3; step++ {
				g := oracleTensors[T](2 + step)
				got.Step(p, g)
				sgdStepOracle(want, &velocity, q, g)
				if d := sameBits(flat(p), flat(q)); d != "" {
					t.Fatalf("momentum %v decay %v step %d: params %s", mom, wd, step, d)
				}
				if mom > 0 {
					if d := sameBits(got.velocity, flat(velocity)); d != "" {
						t.Fatalf("momentum %v decay %v step %d: velocity %s", mom, wd, step, d)
					}
				}
			}
		}
	}
}

// TestAddProximalMatchesOracle: AddProximal over the flat vectors leaves
// the per-tensor oracle's gradients bit for bit, in both dtypes, with the
// specials among the parameters, the gradients and the reference.
func TestAddProximalMatchesOracle(t *testing.T) {
	bothTypes(t, testAddProximalMatchesOracle[float64], testAddProximalMatchesOracle[float32])
}

func testAddProximalMatchesOracle[T tensor.Float](t *testing.T) {
	for _, mu := range []float64{0.01, 1} {
		p := oracleTensors[T](3)
		h := oracleTensors[T](4)
		g := flat(h)
		ref := flat(oracleTensors[T](5))
		AddProximal(flat(p), g, ref, mu)
		addProximalOracle(p, h, ref, mu)
		if d := sameBits(g, flat(h)); d != "" {
			t.Fatalf("mu %v: gradients %s", mu, d)
		}
	}
}

// BenchmarkSGDStep steps the float32 MLP of the TCP benchmark workload
// (256-128-64-8) with momentum, as its local passes do.
func BenchmarkSGDStep(b *testing.B) {
	shapes := [][]int{{128, 256}, {128}, {64, 128}, {64}, {8, 64}, {8}}
	var p, g []*tensor.Of[float32]
	for _, sh := range shapes {
		p, g = append(p, tensor.NewOf[float32](sh...)), append(g, tensor.NewOf[float32](sh...))
	}
	s := NewSGD32(0.05, 0.9, 0)
	s.Step(p, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(p, g)
	}
}
