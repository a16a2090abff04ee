// Package opt implements the optimizers used by the federated trainers:
// SGD with momentum and weight decay, and the FedProx proximal term.
package opt

import (
	"fmt"

	"fedclust/internal/tensor"
)

// SGD is stochastic gradient descent with optional classical momentum and
// L2 weight decay over tensors of element type T. The hyper-parameters
// stay float64 whatever T is (they come from one LocalConfig) and are
// rounded to T once per Step, so a reconfigured optimizer behaves
// identically to a fresh one. The zero value is unconfigured: construct
// with NewSGD / NewSGD32, or call Reconfigure before the first Step.
type SGD[T tensor.Float] struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	velocity    []T // every parameter's, consecutive in the order Step is given them
}

// NewSGD constructs a float64 SGD optimizer. lr must be positive;
// momentum and weightDecay must be non-negative (momentum < 1).
func NewSGD(lr, momentum, weightDecay float64) *SGD[float64] {
	return newSGD[float64](lr, momentum, weightDecay)
}

// NewSGD32 is NewSGD for float32 tensors.
func NewSGD32(lr, momentum, weightDecay float64) *SGD[float32] {
	return newSGD[float32](lr, momentum, weightDecay)
}

func newSGD[T tensor.Float](lr, momentum, weightDecay float64) *SGD[T] {
	s := &SGD[T]{}
	s.Reconfigure(lr, momentum, weightDecay)
	return s
}

// Reconfigure updates the hyper-parameters in place with NewSGD's
// validation, keeping the velocity buffer — reusable optimizer state is
// what lets a worker serve many client visits without reallocating. A
// value off the wire is checked before it gets here (fl.LocalConfig.Check),
// so a panic is a programmer error; a NaN fails every guard.
func (s *SGD[T]) Reconfigure(lr, momentum, weightDecay float64) {
	if !(lr > 0) {
		panic(fmt.Sprintf("opt: learning rate must be positive, got %v", lr))
	}
	if !(momentum >= 0 && momentum < 1) {
		panic(fmt.Sprintf("opt: momentum %v out of [0,1)", momentum))
	}
	if !(weightDecay >= 0) {
		panic(fmt.Sprintf("opt: weight decay must be non-negative, got %v", weightDecay))
	}
	s.LR, s.Momentum, s.WeightDecay = lr, momentum, weightDecay
}

// Step applies one update to params given aligned grads:
//
//	v ← μ·v + (g + λ·w);  w ← w - η·v
//
// The velocity is one buffer over all the parameters, allocated on first
// use (and again whenever the parameter count changes).
func (s *SGD[T]) Step(params, grads []*tensor.Of[T]) {
	if len(params) != len(grads) {
		panic(fmt.Sprintf("opt: %d params but %d grads", len(params), len(grads)))
	}
	if s.Momentum > 0 {
		n := 0
		for _, p := range params {
			n += p.Size()
		}
		if len(s.velocity) != n {
			s.velocity = make([]T, n)
		}
	}
	lr, mom, wd := T(s.LR), T(s.Momentum), T(s.WeightDecay)
	grads = grads[:len(params)]
	off := 0
	for i, p := range params {
		g := grads[i]
		if !p.SameShape(g) {
			panic(fmt.Sprintf("opt: param %d shape %v != grad shape %v", i, p.Shape, g.Shape))
		}
		// The momentum form is one tensor stream over the parameter's
		// window of the flat velocity; the plain form's loop reads slices
		// cut to len(pd) once, so the compiler checks no bounds and
		// reloads no header per element.
		pd := p.Data
		gd := g.Data[:len(pd)]
		if s.Momentum > 0 {
			tensor.MomentumStep(pd, gd, s.velocity[off:off+len(pd)], lr, mom, wd)
		} else {
			for j := range pd {
				eff := gd[j] + T(wd*pd[j])
				pd[j] -= T(lr * eff)
			}
		}
		off += len(pd)
	}
}

// Reset clears momentum state (used when a client restarts local training
// from freshly loaded global weights). The velocity is zeroed in place
// rather than dropped, so a reset-and-reuse cycle allocates nothing and
// is bit-equivalent to a fresh optimizer.
func (s *SGD[T]) Reset() { clear(s.velocity) }

// AddProximal adds the FedProx proximal gradient μ·(w - w_ref) to grads,
// where params and grads are a network's flat parameter and gradient
// vectors and ref is the flat global parameter vector the round started
// from; all three have one length.
func AddProximal[T tensor.Float](params, grads, ref []T, mu float64) {
	if mu < 0 {
		panic(fmt.Sprintf("opt: proximal mu must be non-negative, got %v", mu))
	}
	if len(grads) != len(params) || len(ref) != len(params) {
		panic(fmt.Sprintf("opt: proximal lengths: %d params, %d grads, %d ref", len(params), len(grads), len(ref)))
	}
	if mu == 0 {
		return
	}
	muT := T(mu)
	for j, w := range params {
		grads[j] += T(muT * (w - ref[j]))
	}
}
