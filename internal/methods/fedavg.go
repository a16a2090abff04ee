// Package methods implements the baseline federated-learning algorithms
// the paper compares FedClust against: FedAvg (McMahan et al. 2017),
// FedProx (Li et al. 2020), CFL (Sattler et al. 2020), IFCA (Ghosh et al.
// 2020), and PACFL (Vahidian et al. 2022). All of them run on the shared
// fl.Env substrate through engine.RoundDriver, so comparisons are apples
// to apples and every method inherits the engine's lane pool and
// flat-parameter arenas.
package methods

import (
	"fedclust/internal/engine"
	"fedclust/internal/fl"
)

// secGlobal is the checkpoint section holding a single-global-model
// method's server state.
const secGlobal = "global"

// runGlobalModel is the shared single-global-model loop behind FedAvg and
// FedProx: broadcast the global weights, average whoever reported, serve
// the global model to everyone — with the global vector as the only
// cross-round server state, checkpointed under one section.
func runGlobalModel(env *fl.Env, name string) *fl.Result {
	d := engine.New(env, name)
	d.Res.ClusterFormationRound = -1
	// Both buffers are per-environment scratch recycled across runs, so
	// a warm run allocates no server-side state.
	global := d.InitGlobal()
	starts := d.StartsBuf()

	d.Hooks.Broadcast = func(round int) [][]float64 {
		for i := range starts {
			starts[i] = global
		}
		return starts
	}
	d.Hooks.Aggregate = func(round int, reported []int) {
		vecs, ws := d.Gather(reported)
		// The clients read global only during the (finished) parallel
		// phase and report into separate arena slots, so averaging in
		// place is safe.
		d.Combine(global, vecs, ws)
	}
	d.Hooks.Served = func(int) []float64 { return global }
	d.Hooks.State = func(s *fl.Sections) { s.Vec(secGlobal, global) }
	return d.Run()
}

// FedAvg is the classic single-global-model algorithm: every round all
// clients train locally from the global weights and the server takes the
// sample-weighted average.
type FedAvg struct{}

// Name implements fl.Trainer.
func (FedAvg) Name() string { return "FedAvg" }

// Run implements fl.Trainer. Every client is invited each round, and the
// server averages whoever reported — everyone, unless the environment's
// scenario drops or cuts short some of them.
func (FedAvg) Run(env *fl.Env) *fl.Result {
	return runGlobalModel(env, "FedAvg")
}

// FedProx is FedAvg with a proximal term μ/2·‖w − w_global‖² added to each
// client's local objective, stabilizing training under heterogeneity.
type FedProx struct {
	// Mu is the proximal coefficient (the paper's baseline; typical
	// values 0.01–1).
	Mu float64
}

// Name implements fl.Trainer.
func (p FedProx) Name() string { return "FedProx" }

// Run implements fl.Trainer.
func (p FedProx) Run(env *fl.Env) *fl.Result {
	// FedProx is FedAvg with the proximal term switched on in the local
	// config; reuse the shared loop with an adjusted environment. Create
	// the shared scratch holder before copying so the copy shares it —
	// otherwise the cached engine runtime would land on the throwaway
	// copy and be rebuilt every run. Running under the method's own name
	// (instead of renaming afterward) also stamps checkpoints correctly.
	env.Shared()
	proxEnv := *env
	proxEnv.Local.ProxMu = p.Mu
	return runGlobalModel(&proxEnv, "FedProx")
}
