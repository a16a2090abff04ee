package engine

import (
	"fedclust/internal/fl"
	"fedclust/internal/nn"
	"fedclust/internal/wire"
)

// envState is the engine's per-environment runtime: everything a
// RoundDriver needs that depends only on the environment's shape (client
// count, parameter count, worker count) and is expensive to rebuild —
// the per-worker lanes (models, training scratch, codec buffers),
// the contiguous Locals arena, the worker contexts, the
// sampling/evaluation buffers, and the persistent executor tasks.
//
// It is cached on the environment across runs through
// fl.EnvShared.AcquireRuntime, so the steady state of a long experiment
// (many methods, many rounds on one Env) rebuilds none of it. Reuse is
// bit-equivalent to a fresh build: pooled models are fully overwritten
// by nn.LoadParams before every use, training scratch resets its
// optimizer state per visit, and identity caches (evalLast) never
// survive a call boundary. Concurrent runs on one environment fall back
// to a private, uncached envState.
//
// Reuse assumes the environment's Clients, Factory, Seed, and worker
// count are unchanged between runs — true for every trainer here,
// including FedProx's copied Env (only Local.ProxMu differs; rebind
// refreshes the Env pointer the contexts and hooks see). A run that
// changes Workers or the client set gets a fresh state via fits.
type envState struct {
	env       *fl.Env
	workers   int
	n         int
	numParams int
	// codec/frac are the Env codec selection the state was built for
	// (raw Env values, part of the cached shape — see fits). ef is the
	// shared error-feedback accumulator under a sparse codec, nil
	// otherwise; residuals are per-run state, reset on every rebind and
	// then restored by resume when a checkpoint carries them.
	codec wire.Codec
	frac  float64
	ef    *fl.ErrorFeedback

	lanes   []*fl.Lane
	w0      []float64
	arena   []float64
	locals  [][]float64
	weights []float64
	all     []int
	ctxs    []*ClientCtx

	gatherVecs [][]float64
	gatherWs   []float64

	invited, reported []int // sampling buffers
	evalLast          [][]float64
	perClient         []float64

	// Scenario state for the current round (client-indexed), filled by
	// RunRound before the parallel phase when the environment carries a
	// Participation.Scenario. scenOn gates every scenario branch so a
	// scenario-free round takes exactly the pre-scenario code path.
	scenOn    bool
	cfgEpochs int    // configured local epochs the outcomes refer to
	done      []int  // epochs finished by the deadline (invited clients)
	lag       []int  // rounds late (0 on time, <0 offline)
	repMask   []bool // reported-set membership, for cluster gathers
	// maskOn gates repMask consultation: set by a scenario round (sample
	// fills the mask) or by a remote round after transport failures are
	// folded in. A plain round never reads the mask.
	maskOn bool

	// Per-round defense tallies: uplinks masked for non-finite values and
	// inputs the robust Aggregator excluded across the round's combines.
	// Reset by RunRound, read by DefenseCounts and the DefenseObserver.
	masked   int
	suspects int

	// Per-round phase timing (telemetry.go). timing is armed by
	// startRoundTiming when the process telemetry gate is up or the run's
	// observer implements fl.PhaseObserver; ph accumulates nanoseconds per
	// phase slot, stamp is the last lap boundary, roundT0 the round start.
	// All preallocated in the runtime so a timed round allocates nothing.
	timing       bool
	ph           [phCount]int64
	stamp        int64
	roundT0      int64
	lastInvited  int
	lastReported int

	// Robust-combine scratch (Combine): the per-input deltas from the
	// combine's starting point, backed by one flat arena, plus the
	// aggregated delta. Lazily sized to the largest (n, dim) seen.
	deltaFlat []float64
	deltas    [][]float64
	deltaOut  []float64

	// failMask (client-indexed) marks this round's visits whose update
	// the server does not accept: lost in transit, disowned by a custom
	// Local hook, or masked as non-finite. Reset by RunRound.
	failMask []bool

	// Method-level scratch handed out by RoundDriver.InitGlobal and
	// StartsBuf (the global-model and clustered-FedAvg wiring).
	global []float64
	starts [][]float64

	// Current-round wiring read by the persistent executor tasks; set by
	// RunRound / evaluateServed before the parallel phase, cleared after.
	d          *RoundDriver
	curInvited []int
	curStarts  [][]float64
	curRound   int
	clientTask func(w, j int)
	evalPick   func(w, i int) *nn.Sequential
}

// newEnvState builds the runtime for env's current shape.
func newEnvState(env *fl.Env) *envState {
	n := len(env.Clients)
	es := &envState{
		env:     env,
		workers: env.WorkerCount(),
		n:       n,
		codec:   env.Codec,
		frac:    env.TopKFrac,
		lanes:   fl.NewLanes(env),
	}
	proto := es.lanes[0].Model
	es.numParams = proto.NumParams()
	if env.Codec.Sparse() {
		es.ef = fl.NewErrorFeedback(env.Codec, fl.NormalizeTopKFrac(env.TopKFrac), n, es.numParams)
	}
	es.w0 = nn.FlattenParams(proto)
	es.arena = make([]float64, n*es.numParams)
	es.locals = make([][]float64, n)
	for i := range es.locals {
		es.locals[i] = es.arena[i*es.numParams : (i+1)*es.numParams : (i+1)*es.numParams]
	}
	es.weights = env.TrainSizes()
	es.all = make([]int, n)
	for i := range es.all {
		es.all[i] = i
	}
	es.ctxs = make([]*ClientCtx, len(es.lanes))
	for w := range es.ctxs {
		es.ctxs[w] = &ClientCtx{Env: env, es: es}
	}
	es.gatherVecs = make([][]float64, 0, n)
	es.gatherWs = make([]float64, 0, n)
	es.evalLast = make([][]float64, len(es.lanes))
	es.perClient = make([]float64, n)
	es.done = make([]int, n)
	es.lag = make([]int, n)
	es.repMask = make([]bool, n)
	es.failMask = make([]bool, n)
	// The failure-filter path rewrites the reported set in place; size
	// both sampling buffers up front so it never grows them mid-round.
	es.invited = make([]int, 0, n)
	es.reported = make([]int, 0, n)

	es.clientTask = func(w, j int) {
		i := es.curInvited[j]
		epochs := 0
		if es.scenOn {
			switch {
			case es.lag[i] < 0:
				return // offline: no work happens at all
			case es.d.Async:
				// Semi-async: slow clients run their full pass; only the
				// delivery is late. The aggregator reads the lag.
				epochs = es.cfgEpochs
			case es.done[i] == 0:
				return // sync dropout: work discarded, skip the compute
			default:
				epochs = es.done[i] // straggler: partial pass by deadline
			}
		}
		ctx := es.ctxs[w]
		ctx.Lane = es.lanes[w]
		ctx.Client, ctx.Round = i, es.curRound
		ctx.Epochs = epochs
		ctx.Start = nil
		if es.curStarts != nil {
			ctx.Start = es.curStarts[i]
		}
		ctx.Out = es.locals[i]
		ctx.Cluster = -1
		if es.d.Hooks.ClusterOf != nil {
			ctx.Cluster = es.d.Hooks.ClusterOf(i)
		}
		ctx.Failed = false
		if es.d.Hooks.Local != nil {
			es.d.Hooks.Local(ctx)
		} else {
			DefaultLocal(ctx)
		}
		if ctx.Failed {
			es.failMask[i] = true
		}
	}
	es.evalPick = func(w, i int) *nn.Sequential {
		vec := es.d.Hooks.Served(i)
		m := es.lanes[w].Model
		if es.evalLast[w] == nil || &es.evalLast[w][0] != &vec[0] {
			nn.LoadParams(m, vec)
			es.evalLast[w] = vec
		}
		return m
	}
	return es
}

// fits reports whether the cached state still matches the environment's
// current shape (tests mutate Workers between runs on one Env). The
// codec selection is part of the shape: the error-feedback accumulator
// is built for one codec.
func (es *envState) fits(env *fl.Env) bool {
	return es.workers == env.WorkerCount() && es.n == len(env.Clients) &&
		es.codec == env.Codec && es.frac == env.TopKFrac
}

// rebind points the cached state at this run's Env pointer and driver.
// The Env may be a copy of the one the state was built for (FedProx);
// the contexts must see the copy so hook-visible config (Local) is the
// run's own.
func (es *envState) rebind(env *fl.Env, d *RoundDriver) {
	es.env = env
	es.d = d
	for w, ctx := range es.ctxs {
		ctx.Env = env
		ctx.WireDown, ctx.WireUp = 0, 0 // a panicked round never folded its own
		es.lanes[w].Rebind(env)
	}
	// Residuals are per-run state: a cached runtime may have served a
	// previous method's run on this environment. Resume restores them
	// from the checkpoint after this reset.
	if es.ef != nil {
		es.ef.Reset()
	}
}
