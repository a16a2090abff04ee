package fl

import (
	"sync"
	"sync/atomic"
)

// EnvShared is the lazily created per-Env shared runtime: scratch state
// that persists across runs on one environment, so steady-state rounds
// allocate nothing. It is held behind a pointer so Env itself stays
// copyable (FedProx copies its Env by value); copies made after first
// use share the holder, which is safe because the runtime is claimed
// atomically before use and callers fall back to private state when the
// claim fails.
type EnvShared struct {
	// engine is the round engine's per-env runtime (lanes, parameter
	// arenas, worker contexts, evaluation columns). Opaque to fl.
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
