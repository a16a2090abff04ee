package opt

import (
	"math"
	"testing"

	"fedclust/internal/tensor"
)

func single[T tensor.Float](v T) []*tensor.Of[T] {
	t := tensor.NewOf[T](1)
	t.Data[0] = v
	return []*tensor.Of[T]{t}
}

// bothTypes runs one generic test body per element type.
func bothTypes(t *testing.T, f64, f32 func(t *testing.T)) {
	t.Run("float64", f64)
	t.Run("float32", f32)
}

// near reports whether got is want up to a few ulps of T.
func near[T tensor.Float](got T, want float64) bool {
	tol := 1e-12
	if _, f32 := any(got).(float32); f32 {
		tol = 1e-6
	}
	return math.Abs(float64(got)-want) <= tol
}

func TestSGDPlainStep(t *testing.T) {
	bothTypes(t, testSGDPlainStep[float64], testSGDPlainStep[float32])
}

func testSGDPlainStep[T tensor.Float](t *testing.T) {
	s := newSGD[T](0.1, 0, 0)
	p, g := single[T](1.0), single[T](2.0)
	s.Step(p, g)
	if got := p[0].Data[0]; !near(got, 0.8) {
		t.Fatalf("param after step = %v, want 0.8", got)
	}
}

func TestSGDWeightDecay(t *testing.T) {
	bothTypes(t, testSGDWeightDecay[float64], testSGDWeightDecay[float32])
}

func testSGDWeightDecay[T tensor.Float](t *testing.T) {
	s := newSGD[T](0.1, 0, 0.5)
	p, g := single[T](2.0), single[T](0.0)
	s.Step(p, g)
	// effective grad = 0 + 0.5*2 = 1; p = 2 - 0.1 = 1.9
	if got := p[0].Data[0]; !near(got, 1.9) {
		t.Fatalf("param after decay step = %v, want 1.9", got)
	}
}

// TestSGDMomentumResetReconfigure covers the reuse cycle a worker's
// optimizer goes through between client visits: momentum accumulates,
// Reset starts the velocity over in place, and Reconfigure changes the
// hyper-parameters while keeping the buffers.
func TestSGDMomentumResetReconfigure(t *testing.T) {
	bothTypes(t, testSGDMomentumResetReconfigure[float64], testSGDMomentumResetReconfigure[float32])
}

func testSGDMomentumResetReconfigure[T tensor.Float](t *testing.T) {
	s := newSGD[T](1, 0.9, 0)
	p, g := single[T](0.0), single[T](1.0)
	s.Step(p, g) // v=1, p=-1
	s.Step(p, g) // v=1.9, p=-2.9
	if got := p[0].Data[0]; !near(got, -2.9) {
		t.Fatalf("param after two momentum steps = %v, want -2.9", got)
	}
	s.Reset()
	s.Step(p, g) // v starts over: v=1, p=-3.9
	if got := p[0].Data[0]; !near(got, -3.9) {
		t.Fatalf("param after reset = %v, want -3.9", got)
	}
	s.Reconfigure(0.5, 0.5, 0)
	s.Step(p, g) // v=0.5·1+1=1.5, p=-3.9-0.75=-4.65
	if got := p[0].Data[0]; !near(got, -4.65) {
		t.Fatalf("param after reconfigure = %v, want -4.65", got)
	}
}

func TestSGDQuadraticConvergence(t *testing.T) {
	// Minimize f(w) = (w-3)²; gradient 2(w-3).
	s := NewSGD(0.1, 0.5, 0)
	p := single(0.0)
	g := single(0.0)
	for i := 0; i < 200; i++ {
		g[0].Data[0] = 2 * (p[0].Data[0] - 3)
		s.Step(p, g)
	}
	if got := p[0].Data[0]; math.Abs(got-3) > 1e-6 {
		t.Fatalf("converged to %v, want 3", got)
	}
}

func TestSGDValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSGD(0, 0, 0) },
		func() { NewSGD(0.1, -0.1, 0) },
		func() { NewSGD(0.1, 1.0, 0) },
		func() { NewSGD(0.1, 0, -1) },
	} {
		func(f func()) {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid SGD config did not panic")
				}
			}()
			f()
		}(f)
	}
}

func TestSGDMismatchedShapesPanic(t *testing.T) {
	s := NewSGD(0.1, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched param/grad did not panic")
		}
	}()
	s.Step([]*tensor.Tensor{tensor.New(2)}, []*tensor.Tensor{tensor.New(3)})
}

func TestAddProximal(t *testing.T) {
	bothTypes(t, testAddProximal[float64], testAddProximal[float32])
}

func testAddProximal[T tensor.Float](t *testing.T) {
	p := []*tensor.Of[T]{tensor.FromSlice([]T{1, 2}, 2), tensor.FromSlice([]T{5}, 1)}
	g := []*tensor.Of[T]{tensor.NewOf[T](2), tensor.NewOf[T](1)}
	ref := []T{0, 0, 3}
	AddProximal(p, g, ref, 0.5)
	// g = mu*(w - ref): [0.5, 1.0] and [1.0]
	if g[0].Data[0] != 0.5 || g[0].Data[1] != 1.0 || g[1].Data[0] != 1.0 {
		t.Fatalf("proximal grads = %v %v", g[0].Data, g[1].Data)
	}
}

func TestAddProximalMuZeroNoop(t *testing.T) {
	p := []*tensor.Tensor{tensor.FromSlice([]float64{1}, 1)}
	g := []*tensor.Tensor{tensor.New(1)}
	AddProximal(p, g, []float64{0}, 0)
	if g[0].Data[0] != 0 {
		t.Fatal("mu=0 should be a no-op")
	}
}

func TestAddProximalLengthPanics(t *testing.T) {
	p := []*tensor.Tensor{tensor.New(2)}
	g := []*tensor.Tensor{tensor.New(2)}
	defer func() {
		if recover() == nil {
			t.Fatal("short ref did not panic")
		}
	}()
	AddProximal(p, g, []float64{0}, 0.1)
}

func TestAddProximalPullsTowardRef(t *testing.T) {
	// Proximal term alone should pull w toward ref under SGD.
	s := NewSGD(0.1, 0, 0)
	p := []*tensor.Tensor{tensor.FromSlice([]float64{10}, 1)}
	g := []*tensor.Tensor{tensor.New(1)}
	ref := []float64{2}
	for i := 0; i < 500; i++ {
		g[0].Zero()
		AddProximal(p, g, ref, 1.0)
		s.Step(p, g)
	}
	if got := p[0].Data[0]; math.Abs(got-2) > 1e-6 {
		t.Fatalf("proximal pull converged to %v, want 2", got)
	}
}
