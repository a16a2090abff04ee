// Package engine is the shared federated round engine. Every trainer in
// internal/methods and internal/core runs its training schedule through a
// RoundDriver, which owns the per-round skeleton — the scenario's
// outcomes, communication accounting, parallel client execution,
// aggregation, periodic personalized evaluation — while the method
// supplies the parts that differ through Hooks.
//
// The driver also owns the performance layer every method inherits:
//   - one fl.Lane (network, training scratch, codec buffers) per executor
//     worker, so local training and evaluation rebuild nothing per
//     client per round;
//   - one contiguous flat-parameter arena backing every client's reported
//     update (Locals), written in place via nn.FlattenParamsInto;
//   - a per-environment cached runtime (envState): pool, arenas, worker
//     contexts, reporting/evaluation buffers, and the persistent executor
//     tasks survive across runs on one Env, so a warm round — and even a
//     warm whole run — allocates next to nothing.
//
// All parallel phases run on the shared work-sharing executor
// (internal/sched); see DESIGN.md for the architecture, the hook
// contract, and the scheduler's invariants.
package engine

import (
	"fmt"

	"fedclust/internal/data"
	"fedclust/internal/fl"
)

// ClientCtx is the per-client execution context handed to the Local hook.
// One ClientCtx exists per executor worker and is reused across clients;
// hooks must not retain it (or its Lane) past the call.
type ClientCtx struct {
	Env *fl.Env
	// Lane is the worker's pooled visit state. Hooks that probe before
	// training (IFCA's K-model selection) Lane.Load each candidate and
	// Lane.Evaluate it; the training itself goes through VisitLocal.
	Lane *fl.Lane
	// Client is the client index, Round the 0-based round.
	Client, Round int
	// Epochs is the number of local epochs this visit runs: the
	// configured Env.Local.Epochs, or under a scenario the client's
	// completed-epoch count (stragglers run a partial pass).
	Epochs int
	// Start is this client's entry from the Broadcast hook (nil when the
	// method sets no Broadcast hook; such a hook sets Start itself before
	// VisitLocal or DefaultLocal).
	Start []float64
	// Out is the client's slot in the driver's Locals arena; the visit
	// writes the client's report here.
	Out []float64
	// Cluster is the client's cluster id under a clustered schedule
	// (Hooks.ClusterOf), -1 otherwise — forwarded to remote executors as
	// round metadata.
	Cluster int
	// WireDown and WireUp accumulate the transport bytes this worker's
	// visits measured over the round (to and from remote executors; zero
	// while every visit runs in-process). The engine folds them into
	// CommStats.Measured* after the parallel phase — the socket's
	// cross-check of the byte ledger, never the ledger itself.
	WireDown, WireUp int64
	// Failed marks the visit as lost — a remote update that never
	// arrived (timeout, disconnect). The engine removes failed clients
	// from the round's reported set after the parallel phase, so their
	// stale Out slots are never aggregated. Custom Local hooks may set
	// it for the same effect.
	Failed bool

	es *envState
}

// TrainData returns the dataset this visit trains on: the client's
// training split, or the scenario's poisoned/drifted view of it when the
// run has a scenario. Hooks that probe the client's data before training
// should read it through here so label-noise attackers and drifted
// clients behave under every method.
func (c *ClientCtx) TrainData() *data.Dataset {
	base := c.Env.Clients[c.Client].Train
	if sc := c.Env.Participation.Scenario; sc != nil {
		return sc.TrainData(c.Client, c.Round, base)
	}
	return base
}

// CorruptUplink applies this visit's byzantine uplink corruption (if the
// run has a scenario and the client is a wire-level attacker) to Out in
// place, using Start as the round's reference point. DefaultLocal calls
// it after the visit — local or remote, where it models the byzantine
// node corrupting its own uplink — so custom Local hooks that bypass
// DefaultLocal must call it themselves after VisitLocal. Returns whether
// the vector was modified.
func (c *ClientCtx) CorruptUplink() bool {
	if sc := c.Env.Participation.Scenario; sc != nil {
		return sc.CorruptUpdate(c.Client, c.Round, c.Out, c.Start)
	}
	return false
}

// localConfig is the visit's local-training configuration: the
// environment's, running the visit's epoch count.
func (c *ClientCtx) localConfig() fl.LocalConfig {
	cfg := c.Env.Local
	cfg.Epochs = c.Epochs
	return cfg
}

// VisitLocal runs this visit in-process on the worker's lane: Start is
// loaded as the environment's downlink codec would deliver it, the local
// pass runs on TrainData under the visit's (Client, Round) stream, and
// Out receives the full parameters as the server will hold them after
// the uplink codec — with the dropped remainder of a sparse uplink
// joining the engine's error-feedback residual for the client. Keeping
// this identical to what a transport node does is what makes mixed
// local/remote runs bit-identical under every codec.
func (c *ClientCtx) VisitLocal() {
	c.Lane.Visit(&fl.Visit{
		Client: c.Client, Round: c.Round, Layer: fl.FullParams,
		Cfg: c.localConfig(), Start: c.Start, Data: c.TrainData(),
		Down: c.Env.Codec.Downlink(), Up: c.Env.Codec, EF: c.es.ef,
	}, c.Out)
}

// Hooks are the method-specific parts of a round. Aggregate and Served
// are required; Broadcast is required unless Local is set.
type Hooks struct {
	// Broadcast returns each client's starting parameter vector for the
	// round, indexed by client id. The returned slice is read during the
	// parallel client phase and must stay unmodified until it ends.
	Broadcast func(round int) [][]float64
	// Local overrides the client-side objective. The default
	// (DefaultLocal) is one fl.Lane visit from Start into Out, local or
	// remote. Local runs concurrently across clients: it may only write
	// per-client state (indexed by ctx.Client) and the ctx buffers.
	Local func(ctx *ClientCtx)
	// Aggregate folds the reported clients' Locals into the method's
	// server-side state. Runs serially after the client phase.
	Aggregate func(round int, reported []int)
	// Served returns the flat parameters evaluated for client i during
	// periodic evaluation (e.g. its cluster's model).
	Served func(clientIdx int) []float64
	// DownlinkPerClient overrides the per-client scalar count of the
	// round's request in communication accounting (default: NumParams;
	// IFCA downloads K models per client). Every uplink carries NumParams.
	DownlinkPerClient func(round int) int
	// ClusterOf, when set, labels each client visit with its cluster id
	// (RunClusteredFedAvg wires it) — metadata forwarded to remote
	// executors. Must be pure and safe for concurrent calls.
	ClusterOf func(client int) int
	// State lists the method's cross-round server state (models, caches,
	// assignments, counters) on a checkpoint walk: each persistent buffer
	// once, by section name. The engine runs the one list both ways — a
	// saving walk after a round, a loading walk before the first resumed
	// round, which must leave the method in exactly the state an
	// uninterrupted run would hold there (a failed load aborts the
	// resume). Required when the environment carries a CheckpointPlan.
	State func(s *fl.Sections)
}

// RoundDriver runs the shared sample → broadcast → local-train →
// aggregate → evaluate round loop on an environment.
type RoundDriver struct {
	Env *fl.Env
	// Res accumulates the run's result; methods may record pre-round
	// phases (e.g. FedClust's one-shot clustering traffic) before Run and
	// finalize cluster fields after.
	Res *fl.Result
	// Hooks are the method-specific callbacks.
	Hooks Hooks
	// Async switches the scenario interpretation to semi-async delivery:
	// slow clients run their full local pass (instead of being cut off at
	// the deadline) and only clients whose update arrives on time (lag 0)
	// count as reported; the method's Aggregate hook is expected to
	// collect late arrivals itself via ScenarioOutcome. No effect without
	// a scenario.
	Async bool
	// AggregateEmptyRounds calls the Aggregate hook even on scenario
	// rounds where nobody reported. Methods with server-side state that
	// progresses without fresh reports (FedAvgStale's cached updates,
	// buffered semi-async arrivals) set it; the default skips the hook so
	// plain gathers never fold an empty set.
	AggregateEmptyRounds bool
	// NumParams is the scalar parameter count of the environment's model.
	NumParams int
	// Locals[i] is client i's reported flat parameters for the current
	// round. All slots share one contiguous arena and are rewritten in
	// place every round.
	Locals [][]float64
	// Weights caches env.TrainSizes() for aggregation.
	Weights []float64

	es *envState
	// id is the run's identity, computed once per run when checkpointing
	// is attached: every snapshot the run emits carries it.
	id fl.Identity
	// sh, when non-nil, holds the claim on the environment's shared
	// runtime compartment; Run returns es to it when the schedule ends.
	sh *fl.EnvShared
}

// New builds a driver for one method run on an environment that passes
// Env.Check (one that does not is a programmer error and panics with
// Check's error).
// The heavyweight runtime (lanes, arenas, worker contexts, buffers)
// is cached on the environment and reused by later runs; only the first
// run on an Env — or a run whose shape no longer fits, or one racing a
// concurrent run on the same Env — pays for construction.
func New(env *fl.Env, method string) *RoundDriver {
	if err := env.Check(); err != nil {
		panic(err)
	}
	d := &RoundDriver{Env: env, Res: &fl.Result{Method: method}}
	d.Res.Comm.Pricing = fl.PricingFor(env.Codec, env.TopKFrac)
	sh := env.Shared()
	if v, ok := sh.AcquireRuntime(); ok {
		d.sh = sh
		if es, ok := v.(*envState); ok && es.fits(env) {
			d.es = es
		}
	}
	if d.es == nil {
		d.es = newEnvState(env)
	}
	d.es.rebind(env, d)
	d.NumParams = d.es.numParams
	d.Locals = d.es.locals
	d.Weights = d.es.weights
	return d
}

// close returns the runtime to the environment's shared slot.
func (d *RoundDriver) close() {
	if d.sh != nil {
		d.sh.ReleaseRuntime(d.es)
		d.sh = nil
	}
}

// WithLanes runs fn on env's warm per-worker lanes. It borrows the
// environment's cached runtime exactly as New does — built on first use,
// private when a concurrent run holds the slot — and hands it back when
// fn returns, so a one-shot phase outside any round schedule
// (core.CollectPartialWeights) trains on the models and layer workspaces
// the rounds before and after it use instead of building cold ones.
func WithLanes(env *fl.Env, fn func(lanes []*fl.Lane)) {
	d := New(env, "")
	defer d.close()
	fn(d.es.lanes)
}

// InitParams returns a fresh copy of the canonical initial parameters w₀
// (what nn.FlattenParams(env.NewModel()) yields, without building another
// model). Callers own the copy and may aggregate into it.
func (d *RoundDriver) InitParams() []float64 {
	return append([]float64(nil), d.es.w0...)
}

// InitGlobal returns a per-environment reusable buffer preloaded with
// w₀. Unlike InitParams, the buffer is recycled across runs on the same
// environment, so a warm global-model run (FedAvg/FedProx) allocates
// nothing for its server state. The buffer is invalidated by the next
// InitGlobal call on this environment.
func (d *RoundDriver) InitGlobal() []float64 {
	if d.es.global == nil {
		d.es.global = make([]float64, d.NumParams)
	}
	copy(d.es.global, d.es.w0)
	return d.es.global
}

// StartsBuf returns a per-environment reusable client-indexed slice for
// Broadcast hooks (filling it is the hook's job: every client's entry is
// rewritten each round). Invalidated by the next StartsBuf call
// on this environment.
func (d *RoundDriver) StartsBuf() [][]float64 {
	if d.es.starts == nil {
		d.es.starts = make([][]float64, len(d.Env.Clients))
	}
	return d.es.starts
}

// Lanes exposes the per-worker lanes for method phases outside the round
// loop (FedClust's warmup feature collection), so they run on the same
// warm state the rounds do.
func (d *RoundDriver) Lanes() []*fl.Lane { return d.es.lanes }

// DefaultLocal is the plain client objective: one visit from Start into
// Out, then byzantine corruption of what actually travelled. Clients
// owned by the environment's RemoteTrainer are shipped over the transport
// — same start, same deterministic (client, round) stream, same config,
// and a node that runs the very same fl.Lane visit; everyone else runs
// VisitLocal.
func DefaultLocal(ctx *ClientCtx) {
	if rt := ctx.Env.Remote; rt != nil && rt.Owns(ctx.Client) {
		req := fl.RemoteRequest{
			Client:  ctx.Client,
			Round:   ctx.Round,
			Cluster: ctx.Cluster,
			Layer:   fl.FullParams,
			Cfg:     ctx.localConfig(),
			Start:   ctx.Start,
		}
		down, up, err := rt.Train(&req, ctx.Out)
		ctx.WireDown += down
		ctx.WireUp += up
		if err != nil {
			ctx.Failed = true
			return
		}
	} else {
		ctx.VisitLocal()
	}
	ctx.CorruptUplink()
}

// Gather collects the reported clients' local vectors and aggregation
// weights into reused scratch slices (valid until the next Gather call).
// Under an active scenario the weights reflect partial work: a straggler
// that finished only k of E epochs counts with k/E of its sample weight.
func (d *RoundDriver) Gather(reported []int) (vecs [][]float64, ws []float64) {
	vecs, ws = d.es.gatherVecs[:0], d.es.gatherWs[:0]
	for _, i := range reported {
		vecs = append(vecs, d.Locals[i])
		ws = append(ws, d.ReportWeight(i))
	}
	d.es.gatherVecs, d.es.gatherWs = vecs, ws
	return vecs, ws
}

// GatherCluster collects the local vectors and weights of the clients
// assigned to cluster id, in client order (reused scratch, as Gather).
// Only clients in the round's reported set are gathered — a cluster
// whose every member missed the deadline yields an empty gather, which
// callers must skip.
func (d *RoundDriver) GatherCluster(assign []int, id int) (vecs [][]float64, ws []float64) {
	vecs, ws = d.es.gatherVecs[:0], d.es.gatherWs[:0]
	for i, a := range assign {
		if a != id || !d.es.repMask[i] {
			continue
		}
		vecs = append(vecs, d.Locals[i])
		ws = append(ws, d.ReportWeight(i))
	}
	d.es.gatherVecs, d.es.gatherWs = vecs, ws
	return vecs, ws
}

// Combine folds gathered vectors into dst through the environment's
// aggregation strategy. With no Aggregator configured it is the plain
// weighted model average — bit-exactly the historical path, where dst is
// simply overwritten.
//
// With a robust Aggregator, dst doubles as the combine's starting point
// (the model the cohort was broadcast — the previous global or cluster
// model; semi-async callers pass a zeroed buffer because their inputs
// are already deltas) and the strategy runs in UPDATE space:
// dst ← dst + Aggregate({vecs_i − dst}). Mathematically the weighted
// mean commutes with this shift, but order statistics do not — a
// sign-flipped model 2·start − trained sits well inside the honest
// models' spread under non-IID data, while its *update* is the exact
// negation of an honest step, which trims, medians, and Krum distances
// separate cleanly. This is also the space the robust-aggregation
// literature (and our semi-async staleness paths) already operate in.
// The suspect count accumulates into the round's defense tally. Every
// method-side combine of gathered uplinks should run through it.
func (d *RoundDriver) Combine(dst []float64, vecs [][]float64, ws []float64) {
	agg := d.Env.Aggregator
	if agg == nil {
		fl.WeightedAverageInto(dst, vecs, ws)
		return
	}
	es := d.es
	n, dim := len(vecs), len(dst)
	if len(es.deltaFlat) < n*dim {
		es.deltaFlat = make([]float64, n*dim)
		es.deltas = make([][]float64, 0, n)
		es.deltaOut = make([]float64, dim)
	}
	if len(es.deltaOut) < dim {
		es.deltaOut = make([]float64, dim)
	}
	deltas := es.deltas[:0]
	for i, v := range vecs {
		dv := es.deltaFlat[i*dim : (i+1)*dim]
		for j := range dv {
			dv[j] = v[j] - dst[j]
		}
		deltas = append(deltas, dv)
	}
	es.deltas = deltas
	out := es.deltaOut[:dim]
	es.suspects += agg.Aggregate(out, deltas, ws)
	for j := range dst {
		dst[j] += out[j]
	}
}

// CombineClusters folds each cluster's reported members into its model:
// models[id] ← Combine over the clients assign maps to id, for every id.
// A cluster whose every member missed the round keeps its model.
func (d *RoundDriver) CombineClusters(assign []int, models [][]float64) {
	for id, m := range models {
		if vecs, ws := d.GatherCluster(assign, id); len(vecs) > 0 {
			d.Combine(m, vecs, ws)
		}
	}
}

// maskNonFinite scans the uplinks produced this round and marks any
// containing NaN or ±Inf as failed — a single poisoned vector would
// otherwise spread through every average (and through FedAvgStale's
// cache for rounds after). The scan covers exactly the clients whose
// visit ran: offline clients and sync dropouts never wrote their slot,
// and semi-async late arrivals (lag > 0) must be caught now, before the
// buffer path consumes them in a later round.
func (d *RoundDriver) maskNonFinite() {
	es := d.es
	for i := range es.failMask {
		if es.failMask[i] {
			continue // transport already lost it
		}
		if es.lag[i] < 0 || (!d.Async && es.done[i] == 0) {
			continue // no work happened; the stale slot is never consumed
		}
		if !finiteVec(d.Locals[i]) {
			es.failMask[i] = true
			es.masked++
		}
	}
}

// finiteVec reports whether every element is finite. x−x is 0 for every
// finite x and NaN for NaN and ±Inf, so one subtraction covers both.
func finiteVec(v []float64) bool {
	for _, x := range v {
		if x-x != 0 {
			return false
		}
	}
	return true
}

// ReportWeight is client i's aggregation weight for the current round:
// its training-set size, scaled in a synchronous round by the fraction
// of the configured local pass it actually completed.
func (d *RoundDriver) ReportWeight(i int) float64 {
	w := d.Weights[i]
	if !d.Async && d.es.done[i] < d.es.cfgEpochs {
		w *= float64(d.es.done[i]) / float64(d.es.cfgEpochs)
	}
	return w
}

// ScenarioOutcome returns client i's scenario outcome for the current
// round — completed epochs by the deadline and delivery lag in rounds
// (0 on time, negative offline). Valid during the round's hooks; without
// a scenario every client is on time with its full pass. A visit whose
// update was lost in flight (ClientCtx.Failed — transport timeout or
// disconnect) reports as offline: nothing arrived and nothing will, so
// semi-async aggregators must not schedule its stale Locals slot as a
// late arrival.
func (d *RoundDriver) ScenarioOutcome(i int) (done, lag int) {
	if d.es.failMask[i] {
		return 0, -1
	}
	return d.es.done[i], d.es.lag[i]
}

// Reported reports whether client i is in the current round's reported
// set (valid during the round's hooks). Scenario losses and transport
// failures both clear membership.
func (d *RoundDriver) Reported(i int) bool { return d.es.repMask[i] }

// Run executes the round schedule and returns the accumulated result.
func (d *RoundDriver) Run() *fl.Result {
	// Release the runtime claim even when the hook checks (or a hook
	// itself) panic, so a recovered failure never leaks the slot.
	defer d.close()
	if d.Hooks.Aggregate == nil {
		panic(fmt.Sprintf("engine: %s has no Aggregate hook", d.Res.Method))
	}
	if d.Hooks.Served == nil {
		panic(fmt.Sprintf("engine: %s has no Served hook", d.Res.Method))
	}
	if d.Hooks.Broadcast == nil && d.Hooks.Local == nil {
		panic(fmt.Sprintf("engine: %s has neither Broadcast nor Local hook", d.Res.Method))
	}
	start := 0
	if plan := d.Env.Ckpt; plan != nil {
		if plan.Resume != nil {
			start = d.resume(plan.Resume)
		} else {
			d.id = d.Env.Identity()
		}
	}
	if ob := d.Env.Observer; ob != nil {
		ob.ObserveRunStart(d.Res.Method, d.Env.Rounds, len(d.Env.Clients), start)
	}
	// Report the run's end however it ends: the deferred observation fires
	// on normal completion and on a panic unwinding through the driver, so
	// a control plane never shows an aborted run as still training.
	completed, aborted := start, true
	defer func() {
		if reo, ok := d.Env.Observer.(fl.RunEndObserver); ok {
			reo.ObserveRunEnd(completed, aborted)
		}
	}()
	for round := start; round < d.Env.Rounds; round++ {
		d.RunRound(round)
		d.maybeCheckpoint(round)
		d.FinishRound(round)
		completed = round + 1
	}
	aborted = false
	return d.Res
}

// RunRound executes one round of the schedule (round is 0-based). Run is
// the normal entry point; RunRound is exported for the steady-state
// allocation harness, which asserts a warm round allocates nothing.
func (d *RoundDriver) RunRound(round int) {
	env := d.Env
	es := d.es
	ob := env.Observer
	es.startRoundTiming(ob)
	// Every client is invited; the scenario decides who reports.
	n := es.n
	reported := d.sample(round)
	es.lap(phSample)
	if ob != nil {
		ob.ObserveRoundStart(round, n)
	}
	// Reset the per-round failure state — visits the scenario skips must
	// not leave stale failures behind.
	for i := range es.failMask {
		es.failMask[i] = false
	}
	es.masked, es.suspects = 0, 0
	// The byte ledger (DESIGN.md §8): every invited client is charged one
	// request, every accepted update one response, at the hook-declared
	// sizes — wherever the client trains.
	d.Res.Comm.Download(n, d.downlink(round))
	var starts [][]float64
	if d.Hooks.Broadcast != nil {
		starts = d.Hooks.Broadcast(round)
	}
	es.curStarts, es.curRound = starts, round
	es.lap(phBroadcast)
	env.ParallelClientsWorker(n, es.clientTask)
	es.lap(phLocal)
	es.curStarts = nil
	d.maskNonFinite()
	reported = d.dropFailed(reported)
	d.Res.Comm.Upload(len(reported), d.NumParams)
	for _, ctx := range es.ctxs {
		d.Res.Comm.Measured(ctx.WireDown, ctx.WireUp)
		ctx.WireDown, ctx.WireUp = 0, 0
	}
	if ob != nil {
		for c := 0; c < n; c++ {
			done, lag := d.ScenarioOutcome(c)
			ob.ObserveOutcome(c, done, lag, es.failMask[c])
		}
	}
	// A scenario round where every device missed the deadline is wasted:
	// there is nothing for a synchronous method to fold. Methods whose
	// server state progresses anyway (late arrivals due, cached updates
	// to decay) opt in via Async / AggregateEmptyRounds.
	if len(reported) > 0 || d.Async || d.AggregateEmptyRounds {
		d.Hooks.Aggregate(round, reported)
	}
	d.Res.Comm.EndRound(round + 1)
	if ob != nil {
		if dobs, ok := ob.(fl.DefenseObserver); ok {
			dobs.ObserveDefense(round, es.masked, es.suspects)
		}
		ob.ObserveRoundEnd(round, len(reported), &d.Res.Comm)
	}
	es.lap(phCombine)

	if env.ShouldEval(round) {
		per, acc, loss := d.evaluateServed()
		d.Res.History = append(d.Res.History, fl.RoundMetrics{Round: round + 1, MeanAcc: acc, MeanLoss: loss})
		// per aliases the environment's reusable evaluation buffer; the
		// Result owns its own copy (reused across this run's evals).
		d.Res.PerClientAcc = append(d.Res.PerClientAcc[:0], per...)
		d.Res.FinalAcc, d.Res.FinalLoss = acc, loss
		if ob != nil {
			ob.ObserveEval(round+1, acc, loss)
		}
		es.lap(phEval)
	}
}

// RunClusteredFedAvg wires the hooks for the common "fixed assignment,
// one FedAvg model per cluster" schedule (PACFL and FedClust after their
// one-shot clustering phases) and runs it: every round each client trains
// its cluster's model and each non-empty cluster averages its members.
// labels maps client → cluster in [0, k); models holds one flat parameter
// vector per cluster and is updated in place.
func (d *RoundDriver) RunClusteredFedAvg(labels []int, k int, models [][]float64) *fl.Result {
	starts := d.StartsBuf()
	d.Hooks.ClusterOf = func(i int) int { return labels[i] }
	d.Hooks.Broadcast = func(round int) [][]float64 {
		for i, l := range labels {
			starts[i] = models[l]
		}
		return starts
	}
	d.Hooks.Aggregate = func(round int, reported []int) { d.CombineClusters(labels, models) }
	d.Hooks.Served = func(i int) []float64 { return models[labels[i]] }
	d.Hooks.State = func(s *fl.Sections) {
		s.Scalars(secClusteredMeta, &k)
		s.IntsIn(secClusteredLabels, labels, 0, k)
		s.Vecs(secClusteredModels, models)
	}
	return d.Run()
}

// dropFailed removes visits marked failed (a remote update that never
// arrived, or a custom Local hook disowning its result) from the
// reported set and mask — exactly like scenario dropouts — so cluster
// gathers see the surviving membership.
func (d *RoundDriver) dropFailed(reported []int) []int {
	es := d.es
	kept := reported[:0]
	for _, i := range reported {
		if es.failMask[i] {
			es.repMask[i] = false
			continue
		}
		kept = append(kept, i)
	}
	es.reported = kept
	return kept
}

// sample returns the round's reported set. Each client's outcome is the
// all-on-time one rebind set — unless the run has a scenario, which
// overwrites it — and a client reports when its update is accepted this
// round: any completed epoch in a synchronous round, an on-time full
// pass under Async.
func (d *RoundDriver) sample(round int) (reported []int) {
	es := d.es
	if sc := d.Env.Participation.Scenario; sc != nil {
		for c := 0; c < es.n; c++ {
			es.done[c], es.lag[c] = sc.Outcome(c, round, es.cfgEpochs)
		}
	}
	reported = es.reported[:0]
	for c := 0; c < es.n; c++ {
		rep := (d.Async && es.lag[c] == 0) || (!d.Async && es.done[c] > 0)
		es.repMask[c] = rep
		if rep {
			reported = append(reported, c)
		}
	}
	es.reported = reported
	return reported
}

func (d *RoundDriver) downlink(round int) int {
	if d.Hooks.DownlinkPerClient != nil {
		return d.Hooks.DownlinkPerClient(round)
	}
	return d.NumParams
}

// evaluateServed runs the personalized evaluation protocol on the lanes:
// every client's test split is evaluated on its served vector, loaded
// into the worker's lane model only when it differs (by identity) from
// the one that lane evaluated last, so serving one cluster model to many
// clients costs one load per worker. The identity cache never survives a
// call (a vector freed since the last evaluation could alias a new
// allocation). It returns the per-client accuracies (the runtime's
// column, overwritten by the next evaluation) and the mean accuracy and
// loss over clients with test data, summed in client order.
func (d *RoundDriver) evaluateServed() (perClient []float64, meanAcc, meanLoss float64) {
	es := d.es
	for i := range es.evalLast {
		es.evalLast[i] = nil
	}
	d.Env.ParallelClientsWorker(es.n, es.evalTask)
	var accSum, lossSum float64
	valid := 0
	for i, c := range d.Env.Clients {
		if hasTest(c.Test) {
			accSum += es.perClient[i]
			lossSum += es.evalLoss[i]
			valid++
		}
	}
	if valid == 0 {
		return es.perClient, 0, 0
	}
	return es.perClient, accSum / float64(valid), lossSum / float64(valid)
}

// hasTest reports whether a client's test split counts in evaluation.
func hasTest(test *data.Dataset) bool { return test != nil && test.Len() > 0 }
