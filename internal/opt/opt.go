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
	velocity    []*tensor.Of[T]
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
// validation, keeping any velocity buffers — reusable optimizer state is
// what lets a worker serve many client visits without reallocating.
func (s *SGD[T]) Reconfigure(lr, momentum, weightDecay float64) {
	if lr <= 0 {
		panic(fmt.Sprintf("opt: learning rate must be positive, got %v", lr))
	}
	if momentum < 0 || momentum >= 1 {
		panic(fmt.Sprintf("opt: momentum %v out of [0,1)", momentum))
	}
	if weightDecay < 0 {
		panic(fmt.Sprintf("opt: weight decay must be non-negative, got %v", weightDecay))
	}
	s.LR, s.Momentum, s.WeightDecay = lr, momentum, weightDecay
}

// Step applies one update to params given aligned grads:
//
//	v ← μ·v + (g + λ·w);  w ← w - η·v
//
// On first use it lazily allocates velocity buffers matching the params.
func (s *SGD[T]) Step(params, grads []*tensor.Of[T]) {
	if len(params) != len(grads) {
		panic(fmt.Sprintf("opt: %d params but %d grads", len(params), len(grads)))
	}
	if s.Momentum > 0 && (s.velocity == nil || len(s.velocity) != len(params)) {
		s.velocity = make([]*tensor.Of[T], len(params))
		for i, p := range params {
			s.velocity[i] = tensor.NewOf[T](p.Shape...)
		}
	}
	lr, mom, wd := T(s.LR), T(s.Momentum), T(s.WeightDecay)
	for i, p := range params {
		g := grads[i]
		if !p.SameShape(g) {
			panic(fmt.Sprintf("opt: param %d shape %v != grad shape %v", i, p.Shape, g.Shape))
		}
		if s.Momentum > 0 {
			v := s.velocity[i]
			if !v.SameShape(p) {
				v = tensor.NewOf[T](p.Shape...)
				s.velocity[i] = v
			}
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

// Reset clears momentum state (used when a client restarts local training
// from freshly loaded global weights). The velocity buffers are zeroed in
// place rather than dropped, so a reset-and-reuse cycle allocates nothing
// and is bit-equivalent to a fresh optimizer.
func (s *SGD[T]) Reset() {
	for _, v := range s.velocity {
		v.Zero()
	}
}

// AddProximal adds the FedProx proximal gradient μ·(w - w_ref) to grads,
// where ref is the flat global parameter vector the round started from.
// Layout must match the concatenation order of params.
func AddProximal[T tensor.Float](params, grads []*tensor.Of[T], ref []T, mu float64) {
	if mu < 0 {
		panic(fmt.Sprintf("opt: proximal mu must be non-negative, got %v", mu))
	}
	if mu == 0 {
		return
	}
	muT := T(mu)
	off := 0
	for i, p := range params {
		g := grads[i]
		if off+p.Size() > len(ref) {
			panic(fmt.Sprintf("opt: proximal ref too short: need %d, have %d", off+p.Size(), len(ref)))
		}
		for j := range p.Data {
			g.Data[j] += T(muT * (p.Data[j] - ref[off+j]))
		}
		off += p.Size()
	}
	if off != len(ref) {
		panic(fmt.Sprintf("opt: proximal ref length %d, params total %d", len(ref), off))
	}
}
