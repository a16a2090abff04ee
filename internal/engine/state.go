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
// reporting/evaluation buffers, and the persistent executor tasks.
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
	ctxs    []*ClientCtx

	gatherVecs [][]float64
	gatherWs   []float64

	reported []int // the round's reported set
	// Evaluation phase (evaluateServed): the served vector each lane's
	// model last loaded, and the per-client accuracy and loss columns.
	evalLast  [][]float64
	perClient []float64
	evalLoss  []float64

	// Each client's outcome for the current round (client-indexed):
	// rebind sets the all-on-time one, which is every round's outcome
	// without a scenario; sample overwrites it from the scenario when the
	// run has one, and derives the reported set and mask from it.
	cfgEpochs int    // configured local epochs the outcomes refer to
	done      []int  // epochs finished by the deadline
	lag       []int  // rounds late (0 on time, <0 offline)
	repMask   []bool // reported-set membership, for cluster gathers

	// Per-round defense tallies: uplinks masked for non-finite values and
	// inputs the robust Aggregator excluded across the round's combines.
	// Reset by RunRound, read by the DefenseObserver.
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
	curStarts  [][]float64
	curRound   int
	clientTask func(w, i int)
	evalTask   func(w, i int)
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
	es.ctxs = make([]*ClientCtx, len(es.lanes))
	for w := range es.ctxs {
		es.ctxs[w] = &ClientCtx{Env: env, es: es}
	}
	es.gatherVecs = make([][]float64, 0, n)
	es.gatherWs = make([]float64, 0, n)
	es.evalLast = make([][]float64, len(es.lanes))
	es.perClient = make([]float64, n)
	es.evalLoss = make([]float64, n)
	es.done = make([]int, n)
	es.lag = make([]int, n)
	es.repMask = make([]bool, n)
	es.failMask = make([]bool, n)
	// The scenario filter and the failure filter write the reported set
	// here; size it up front so neither grows it mid-round.
	es.reported = make([]int, 0, n)

	es.clientTask = func(w, i int) {
		epochs := es.done[i] // a straggler runs a partial pass by the deadline
		switch {
		case es.lag[i] < 0:
			return // offline: no work happens at all
		case es.d.Async:
			// Semi-async: slow clients run their full pass; only the
			// delivery is late. The aggregator reads the lag.
			epochs = es.cfgEpochs
		case epochs == 0:
			return // sync dropout: work discarded, skip the compute
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
	// evalTask evaluates client i's served model on lane w: the lane's
	// model reloads only when the served vector differs (by identity) from
	// the one it evaluated last.
	es.evalTask = func(w, i int) {
		test := es.env.Clients[i].Test
		if !hasTest(test) {
			es.perClient[i] = 0
			return
		}
		vec := es.d.Hooks.Served(i)
		lane := es.lanes[w]
		if es.evalLast[w] == nil || &es.evalLast[w][0] != &vec[0] {
			nn.LoadParams(lane.Model, vec)
			es.evalLast[w] = vec
		}
		es.evalLoss[i], es.perClient[i] = lane.Scratch.Evaluate(lane.Model, test, es.env.EvalBatchSize())
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
	// Every client starts at the all-on-time outcome: its full local pass,
	// on time, reported. Without a scenario that is every round's outcome;
	// a cached runtime may still hold a previous run's scenario outcomes.
	es.cfgEpochs = max(env.Local.Epochs, 1)
	for i := range es.done {
		es.done[i], es.lag[i], es.repMask[i] = es.cfgEpochs, 0, true
	}
	// Residuals are per-run state: a cached runtime may have served a
	// previous method's run on this environment. Resume restores them
	// from the checkpoint after this reset.
	if es.ef != nil {
		es.ef.Reset()
	}
}
