package fl

import (
	"sync"
	"sync/atomic"

	"fedclust/internal/nn"
)

// EnvShared is the lazily created per-Env shared runtime: scratch state
// that persists across runs and evaluations on one environment, so
// steady-state rounds allocate nothing. It is held behind a pointer so
// Env itself stays copyable (FedProx copies its Env by value); copies
// made after first use share the holder, which is safe because every
// compartment is claimed atomically before use and callers fall back to
// private state when the claim fails.
type EnvShared struct {
	evalBusy atomic.Bool
	eval     evalScratch

	// engine compartment: the round engine's per-env runtime (model
	// pool, parameter arenas, worker contexts). Opaque to fl.
	engineBusy atomic.Bool
	engine     any
}

// sharedMu guards lazy creation of Env.shared across goroutines.
var sharedMu sync.Mutex

// Shared returns the environment's shared-state holder, creating it on
// first use.
func (e *Env) Shared() *EnvShared {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if e.shared == nil {
		e.shared = &EnvShared{}
	}
	return e.shared
}

// AcquireRuntime hands the caller exclusive ownership of the engine
// compartment. It returns the previously released value (nil on first
// use) and true, or (nil, false) when another run currently holds it —
// the caller must then build private state instead. A successful acquire
// must be paired with ReleaseRuntime.
func (s *EnvShared) AcquireRuntime() (any, bool) {
	if !s.engineBusy.CompareAndSwap(false, true) {
		return nil, false
	}
	return s.engine, true
}

// ReleaseRuntime stores v as the compartment's cached state and releases
// the claim, making v available to the next acquirer.
func (s *EnvShared) ReleaseRuntime(v any) {
	s.engine = v
	s.engineBusy.Store(false)
}

// evalScratch is the reusable state of the evaluation protocol: the
// per-client result columns, one warm TrainScratch (loss head, batcher,
// float32 shadow) per worker, and the persistent executor task. One
// evalScratch serves one evaluation call at a time (claimed via
// EnvShared.evalBusy); contended calls run on a private throwaway
// instance.
type evalScratch struct {
	losses  []float64
	valid   []bool
	scratch []TrainScratch

	// Per-call wiring for the persistent executor task. cur is the
	// current call's per-client accuracy slice; env/pick the call's
	// environment and model picker. Cleared at call end.
	env  *Env
	pick func(worker, clientIdx int) *nn.Sequential
	cur  []float64
	task func(w, i int)
}

// ensure sizes the scratch for n clients and `workers` worker slots and
// resets the per-call columns.
func (s *evalScratch) ensure(n, workers int) {
	if cap(s.losses) < n {
		s.losses = make([]float64, n)
		s.valid = make([]bool, n)
	}
	s.losses = s.losses[:n]
	s.valid = s.valid[:n]
	for i := range s.losses {
		s.losses[i] = 0
		s.valid[i] = false
	}
	if len(s.scratch) < workers {
		grownScratch := make([]TrainScratch, workers)
		copy(grownScratch, s.scratch) // float32 mirrors are expensive; keep them
		s.scratch = grownScratch
	}
	if s.task == nil {
		s.task = func(w, i int) {
			c := s.env.Clients[i]
			if c.Test == nil || c.Test.Len() == 0 {
				return
			}
			ts := &s.scratch[w]
			ts.DType = s.env.DType
			l, a := ts.Evaluate(s.pick(w, i), c.Test, s.env.EvalBatchSize())
			s.cur[i] = a
			s.losses[i] = l
			s.valid[i] = true
		}
	}
}

// acquireEval claims the environment's shared evaluation scratch;
// contended callers get a fresh private instance (claimed == false).
func (e *Env) acquireEval() (s *evalScratch, claimed bool) {
	sh := e.Shared()
	if sh.evalBusy.CompareAndSwap(false, true) {
		return &sh.eval, true
	}
	return &evalScratch{}, false
}

// releaseEval ends a claimed acquireEval.
func (e *Env) releaseEval(s *evalScratch, claimed bool) {
	s.env, s.pick, s.cur = nil, nil, nil
	if claimed {
		e.shared.evalBusy.Store(false)
	}
}
