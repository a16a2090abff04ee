package methods

import (
	"fmt"
	"math"

	"fedclust/internal/engine"
	"fedclust/internal/fl"
)

// FedAvgStale is FedAvg with stale-update decay: the server caches every
// client's most recent model *update* (its delta against the weights it
// was sent) and each round moves the global by the weighted mean of all
// cached updates, with a client's weight decayed by Beta per round of
// staleness. Fresh reports refresh their cache entry at staleness 0, so
// with everyone on time the step equals FedAvg's exactly (the weighted
// mean of client parameters is the broadcast point plus the weighted
// mean of their deltas); under dropout, missing clients keep steering
// the global through their decayed last-known direction instead of
// vanishing from the average — the memory-augmented FedAvg family
// (MIFA-style).
type FedAvgStale struct {
	// Beta is the per-round staleness decay of cached updates (default
	// 0.5): an update s rounds old counts with Beta^s of its weight.
	Beta float64
	// MaxStaleness discards cached updates older than this many rounds
	// (default 5).
	MaxStaleness int
}

// Name implements fl.Trainer.
func (s FedAvgStale) Name() string { return "FedAvgStale" }

func (s FedAvgStale) defaults() FedAvgStale {
	if s.Beta == 0 {
		s.Beta = 0.5
	}
	if s.MaxStaleness == 0 {
		s.MaxStaleness = 5
	}
	return s
}

// Run implements fl.Trainer.
func (s FedAvgStale) Run(env *fl.Env) *fl.Result {
	s = s.defaults()
	d := engine.New(env, "FedAvgStale")
	// Rounds where every device misses the deadline still step the
	// global from the cached updates (they age, the mean shifts).
	d.AggregateEmptyRounds = true
	d.Res.ClusterFormationRound = -1
	global := d.InitGlobal()
	starts := d.StartsBuf()
	n := len(env.Clients)

	// cache[i] is client i's last reported update (delta against the
	// weights it trained from; one arena), cachedAt[i] the round it
	// reported (-1: never).
	arena := make([]float64, n*d.NumParams)
	cache := make([][]float64, n)
	cachedAt := make([]int, n)
	cacheW := make([]float64, n) // report weight at caching time (partial work)
	for i := range cache {
		cache[i] = arena[i*d.NumParams : (i+1)*d.NumParams]
		cachedAt[i] = -1
	}
	sum := make([]float64, d.NumParams)
	// Gather scratch: the eligible cached deltas and their decayed weights.
	var vecs [][]float64
	var ws []float64

	d.Hooks.Broadcast = func(round int) [][]float64 {
		for i := range starts {
			starts[i] = global
		}
		return starts
	}
	d.Hooks.Aggregate = func(round int, reported []int) {
		// Refresh the cache from this round's reports. global still holds
		// the broadcast weights during Aggregate (it moves only below),
		// so Locals[i] − global is the update the client computed.
		for _, i := range reported {
			fl.DeltaInto(cache[i], d.Locals[i], global)
			cachedAt[i] = round
			cacheW[i] = d.ReportWeight(i)
		}
		// Step by the staleness-decayed weighted mean of all cached
		// updates. Fresh entries (age 0, decay 1) carry their partial-
		// work-scaled weight; stale ones fade by Beta per round and are
		// dropped past MaxStaleness. Under a robust Aggregator the step is
		// its combine of the same deltas and weights — a poisoned cache
		// entry keeps steering a plain mean for MaxStaleness rounds, so
		// the defense matters doubly here.
		vecs, ws = vecs[:0], ws[:0]
		for i := 0; i < n; i++ {
			age := round - cachedAt[i]
			if cachedAt[i] < 0 || age > s.MaxStaleness {
				continue
			}
			w := cacheW[i]
			if age > 0 {
				w *= math.Pow(s.Beta, float64(age))
			}
			vecs = append(vecs, cache[i])
			ws = append(ws, w)
		}
		if div := foldDeltas(d, sum, vecs, ws); div != 0 {
			for j := range global {
				global[j] += sum[j] / div
			}
		}
	}
	d.Hooks.Served = func(int) []float64 { return global }
	// Checkpoint state: the global model plus the whole staleness cache —
	// every client's last update, when it reported, and the weight it
	// carried. sum is per-Aggregate scratch, not state.
	d.Hooks.State = func(sec *fl.Sections) {
		sec.Vec(secGlobal, global)
		sec.Vec("stale/cache", arena)
		sec.IntsIn("stale/cached_at", cachedAt, -1, env.Rounds)
		sec.Vec("stale/cache_w", cacheW)
	}
	return d.Run()
}

// foldDeltas is the one staleness-aware server step: it zeroes sum and
// folds the delta-space vectors into it under their decayed weights, and
// returns the divisor the caller's step applies — 0 when the weights sum
// to nothing and there is no step to take. Without an Aggregator, sum is
// the raw Σ wᵢ·vᵢ and div = Σ wᵢ: the division happens once, in the
// caller, which is why this cannot go through fl.WeightedAverageInto (it
// scales each term by wᵢ/Σw and would move the last bits). With one, sum
// is its combine from a zero start — the inputs already are deltas — and
// div = 1, so the caller's x/div and lr/div are exact.
func foldDeltas(d *engine.RoundDriver, sum []float64, vecs [][]float64, ws []float64) (div float64) {
	for _, w := range ws {
		div += w
	}
	if div <= 0 {
		return 0
	}
	for j := range sum {
		sum[j] = 0
	}
	if d.Env.Aggregator != nil {
		d.Combine(sum, vecs, ws)
		return 1
	}
	for i, v := range vecs {
		for j, x := range v {
			sum[j] += ws[i] * x
		}
	}
	return div
}

// FedBuff is a buffered semi-asynchronous FedAvg (after Nguyen et al.'s
// FedBuff): the server never waits for stragglers. Clients train their
// full local pass against the global model of the round they started;
// on-time updates arrive immediately, slow clients' updates arrive lag
// rounds later. Every arrival pushes a model delta into a buffer, and
// whenever the buffer holds Goal updates the server applies their
// staleness-decayed weighted mean: w ← w + ServerLR · Σ βˢᵢwᵢΔᵢ / Σ βˢᵢwᵢ.
//
// Runs under a Participation.Scenario in the engine's Async mode; without
// a scenario every update arrives on time and FedBuff is a buffered
// delta-form FedAvg.
type FedBuff struct {
	// Goal is the buffer size that triggers a server step (default:
	// half the population, at least 1).
	Goal int
	// Beta is the per-round staleness decay of a buffered delta's weight
	// (default 0.5).
	Beta float64
	// ServerLR scales the applied buffered mean delta. Default Goal/n,
	// so the n/Goal server steps of a fully-on-time round move the
	// global by one full mean update — matching FedAvg's step size.
	ServerLR float64
}

// Name implements fl.Trainer.
func (f FedBuff) Name() string { return "FedBuff" }

// Run implements fl.Trainer.
func (f FedBuff) Run(env *fl.Env) *fl.Result {
	n := len(env.Clients)
	if f.Goal == 0 {
		f.Goal = n / 2
	}
	if f.Goal < 1 {
		f.Goal = 1
	}
	if f.Beta == 0 {
		f.Beta = 0.5
	}
	if f.ServerLR == 0 {
		f.ServerLR = float64(f.Goal) / float64(n)
	}
	d := engine.New(env, "FedBuff")
	d.Async = true
	d.Res.ClusterFormationRound = -1
	global := d.InitGlobal()
	starts := d.StartsBuf()
	// base is the broadcast snapshot deltas are taken against; the global
	// itself moves mid-schedule whenever the buffer flushes.
	base := make([]float64, d.NumParams)

	// One update slot per client: the delta it will deliver, the round
	// that lands (-1: nothing in flight) and the round it trained on. A
	// device stays busy from the moment it finishes a pass until the
	// server folds that update in — a busy device's new training rounds
	// are discarded (it was working on the old pass), which also keeps the
	// slot's delta stable while a buffered entry still references it.
	pendArena := make([]float64, n*d.NumParams)
	deltas := make([][]float64, n)
	arrives := make([]int, n)
	trained := make([]int, n)
	for i := range deltas {
		deltas[i] = pendArena[i*d.NumParams : (i+1)*d.NumParams]
		arrives[i] = -1
	}
	busy := make([]bool, n)
	rep := make([]bool, n) // this round's reported set, rebuilt per Aggregate
	// The buffer of delivered updates awaiting a server step, in arrival
	// order: whose, and how many rounds old.
	var bufClient, bufStale []int
	deliver := func(client, staleness int) {
		bufClient = append(bufClient, client)
		bufStale = append(bufStale, staleness)
	}
	sum := make([]float64, d.NumParams)
	var vecs [][]float64
	var ws []float64

	// step applies one server step from the first m buffered updates:
	// their staleness-decayed weighted mean — under a robust Aggregator
	// its combine of the same deltas and weights, so a garbage delta
	// sitting in the buffer cannot own the step — scaled by ServerLR.
	step := func(m int) {
		vecs, ws = vecs[:0], ws[:0]
		for b, i := range bufClient[:m] {
			vecs = append(vecs, deltas[i])
			ws = append(ws, d.Weights[i]*math.Pow(f.Beta, float64(bufStale[b])))
			busy[i] = false
		}
		if div := foldDeltas(d, sum, vecs, ws); div != 0 {
			scale := f.ServerLR / div
			for j := range global {
				global[j] += scale * sum[j]
			}
		}
	}

	d.Hooks.Broadcast = func(round int) [][]float64 {
		copy(base, global)
		for i := range starts {
			starts[i] = global
		}
		return starts
	}
	// Busy devices (an undelivered earlier pass) skip this round's
	// training outright — Aggregate would discard it anyway, and local
	// passes dominate simulation cost. busy only changes in Aggregate,
	// after the parallel phase, so concurrent reads here are safe and
	// worker-count independent.
	d.Hooks.Local = func(ctx *engine.ClientCtx) {
		if busy[ctx.Client] {
			return
		}
		engine.DefaultLocal(ctx)
	}
	d.Hooks.Aggregate = func(round int, reported []int) {
		// Deliveries due this round from passes started earlier, in
		// client order so the fold is independent of executor scheduling.
		// The engine's uplink accounting covers only on-time reports, so
		// late arrivals are charged here — stragglers' updates cost their
		// bytes in the round they land.
		late := 0
		for i := 0; i < n; i++ {
			if arrives[i] != round {
				continue
			}
			deliver(i, round-trained[i])
			arrives[i] = -1
			late++
		}
		d.Res.Comm.Upload(late, d.NumParams)
		// This round's trainees: on-time clients deliver immediately,
		// slow ones go in flight for lag rounds. Busy devices (an earlier
		// pass not yet folded in) discard this round's work. On-time
		// delivery additionally requires membership in the engine's
		// reported set, so Participation.DropRate crash losses hit FedBuff
		// like every other method; in-flight deliveries model the
		// transport the crash draw does not cover.
		for i := range rep {
			rep[i] = false
		}
		for _, i := range reported {
			rep[i] = true
		}
		busySkipped := 0
		for _, i := range d.InvitedThisRound() {
			_, lag := d.ScenarioOutcome(i)
			if lag == 0 && rep[i] && busy[i] {
				busySkipped++ // charged as reporting, but delivered nothing
			}
			if lag < 0 || busy[i] || (lag == 0 && !rep[i]) {
				continue
			}
			fl.DeltaInto(deltas[i], d.Locals[i], base)
			trained[i] = round
			busy[i] = true
			if lag == 0 {
				deliver(i, 0)
			} else {
				arrives[i] = round + lag
			}
		}
		// The engine charged every reported client's upload; busy devices
		// skipped training and sent nothing, so refund theirs.
		d.Res.Comm.Upload(-busySkipped, d.NumParams)
		// Apply server steps for every full buffer; the final round
		// flushes whatever has arrived so late work is not silently lost.
		for len(bufClient) >= f.Goal {
			step(f.Goal)
			bufClient = append(bufClient[:0], bufClient[f.Goal:]...)
			bufStale = append(bufStale[:0], bufStale[f.Goal:]...)
		}
		if round == env.Rounds-1 && len(bufClient) > 0 {
			step(len(bufClient))
			bufClient, bufStale = bufClient[:0], bufStale[:0]
		}
	}
	d.Hooks.Served = func(int) []float64 { return global }
	// Checkpoint state: the global model, every in-flight pass (delta
	// arena + arrival/training rounds + busy flags), and the undersized
	// buffer awaiting its Goal-th entry. base is rebuilt by the next
	// round's Broadcast and sum is scratch, so neither is state.
	d.Hooks.State = func(s *fl.Sections) {
		s.Vec(secGlobal, global)
		s.Vec("fedbuff/deltas", pendArena)
		s.IntsIn("fedbuff/arrives", arrives, -1, math.MaxInt)
		s.IntsIn("fedbuff/trained", trained, 0, env.Rounds)
		s.Bools("fedbuff/busy", busy)
		s.VarIntsIn("fedbuff/buf_client", &bufClient, 0, n)
		s.VarIntsIn("fedbuff/buf_stale", &bufStale, 0, env.Rounds)
		if len(bufStale) != len(bufClient) {
			s.Fail(fmt.Errorf("fedbuff: checkpoint buffers %d clients but %d stalenesses", len(bufClient), len(bufStale)))
		}
	}
	return d.Run()
}
