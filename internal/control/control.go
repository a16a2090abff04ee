// Package control is the coordinator's live control plane: a Tracker
// that implements fl.RoundObserver to mirror a running federation's
// progress into mutex-guarded counters (and, with the telemetry gate up,
// into the process registry's round series), and a small HTTP server
// exposing them — round progress, per-client outcome counts, ledger and
// socket-measured traffic, straggler histograms — plus an on-demand checkpoint
// trigger wired into the engine's CheckpointPlan.
package control

import (
	"sync"
	"sync/atomic"

	"fedclust/internal/fl"
	"fedclust/internal/obs"
)

// Status is the /status snapshot.
type Status struct {
	Method      string `json:"method"`
	Running     bool   `json:"running"`
	Round       int    `json:"round"` // completed rounds
	TotalRounds int    `json:"total_rounds"`
	StartRound  int    `json:"start_round"` // > 0: resumed from a checkpoint
	NClients    int    `json:"n_clients"`
	Invited     int    `json:"invited"`  // last round's invited count
	Reported    int    `json:"reported"` // last round's on-time reports

	// Up/DownBytes are the cumulative byte ledger; Measured* is what the
	// transport's sockets actually carried — equal on a fault-free
	// fully-remote run, above it under retries and lost uplinks, below it
	// for clients trained in-process.
	UpBytes      int64 `json:"up_bytes"`
	DownBytes    int64 `json:"down_bytes"`
	MeasuredUp   int64 `json:"measured_up_bytes"`
	MeasuredDown int64 `json:"measured_down_bytes"`

	// EvalRound/MeanAcc/MeanLoss are the latest recorded evaluation.
	EvalRound int     `json:"eval_round"`
	MeanAcc   float64 `json:"mean_acc"`
	MeanLoss  float64 `json:"mean_loss"`

	Checkpoints int `json:"checkpoints"` // snapshots emitted so far

	// Aborted is true when the run ended before its configured total
	// rounds (error, panic, or operator abort) — Running is false either
	// way once the engine reports the run's end.
	Aborted bool `json:"aborted"`

	// LastPhases is the most recent round's wall-clock phase breakdown;
	// PhaseTotals accumulates the whole run. Zero until the engine reports
	// phase timing (it always does when a tracker observes the run).
	LastPhases  fl.RoundPhases `json:"last_phases"`
	PhaseTotals fl.RoundPhases `json:"phase_totals"`

	// Defense counters from the robust-aggregation layer (hostile-world
	// runs): Masked* counts uplinks dropped for non-finite values,
	// Suspects* the inputs the robust aggregator excluded from its
	// combines. Last* is the most recent round, Total* the whole run.
	MaskedLast    int `json:"masked_last"`
	MaskedTotal   int `json:"masked_total"`
	SuspectsLast  int `json:"suspects_last"`
	SuspectsTotal int `json:"suspects_total"`
}

// Stragglers is the /stragglers histogram snapshot.
type Stragglers struct {
	// DoneEpochs[k] counts client-rounds that completed exactly k epochs
	// by the deadline (index 0 = dropped out).
	DoneEpochs []int `json:"done_epochs"`
	// Lag[k] counts client-rounds whose update arrived k rounds late
	// (index 0 = on time; offline rounds are excluded).
	Lag []int `json:"lag"`
	// Offline counts client-rounds with no delivery at all.
	Offline int `json:"offline"`
}

// roundSeries is the round engine's view in the process registry, fed
// by every Tracker from the observations it receives: phase timing,
// round and checkpoint counts, defense tallies, and the last round's
// participation. Built on the first update with the gate up
// (registration allocates; updates are atomic and do not).
type roundSeries struct {
	phase                                 [7]*obs.Histogram // fl.RoundPhases' fields, in order
	rounds, checkpoints, masked, suspects *obs.Counter
	invited, reported                     *obs.Gauge
}

var series = sync.OnceValue(func() *roundSeries {
	r := obs.Default()
	m := &roundSeries{}
	for i, name := range [...]string{"sample", "broadcast", "local", "combine", "eval", "checkpoint", "total"} {
		m.phase[i] = r.Histogram("fedsim_round_phase_seconds",
			obs.Label("phase", name),
			"Wall-clock seconds spent per round lifecycle phase.", nil)
	}
	m.rounds = r.Counter("fedsim_rounds_total", "",
		"Completed federation rounds.")
	m.checkpoints = r.Counter("fedsim_checkpoints_total", "",
		"Checkpoints handed to the sink.")
	m.masked = r.Counter("fedsim_masked_uplinks_total", "",
		"Uplinks dropped for non-finite values.")
	m.suspects = r.Counter("fedsim_defense_suspects_total", "",
		"Inputs excluded by the robust aggregator.")
	m.invited = r.Gauge("fedsim_round_invited", "",
		"Clients invited in the most recent round.")
	m.reported = r.Gauge("fedsim_round_reported", "",
		"Updates that reached the server in the most recent round.")
	return m
})

// Tracker mirrors a run's progress. It implements fl.RoundObserver; all
// methods and snapshots are safe for concurrent use (the driver writes
// between phases, HTTP handlers read whenever).
type Tracker struct {
	mu      sync.Mutex
	epochs  int
	status  Status
	clients []fl.OutcomeCounts
	done    []int
	lag     []int
	offline int
	trigger atomic.Bool
}

// NewTracker returns an empty tracker. localEpochs is the configured
// full local pass (Env.Local.Epochs): an on-time delivery with fewer
// completed epochs is classified as a straggler's partial pass. 0
// disables the partial classification.
func NewTracker(localEpochs int) *Tracker { return &Tracker{epochs: localEpochs} }

// ObserveRunStart implements fl.RoundObserver.
func (t *Tracker) ObserveRunStart(method string, totalRounds, nClients, startRound int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.status = Status{
		Method: method, Running: true,
		Round: startRound, TotalRounds: totalRounds,
		StartRound: startRound, NClients: nClients,
		EvalRound: -1,
	}
	// The buffers are reused across runs (snapshots copy out of them), so
	// observing a run allocates nothing once the tracker has seen one as
	// large.
	t.clients = append(t.clients[:0], make([]fl.OutcomeCounts, nClients)...)
	t.done, t.lag, t.offline = t.done[:0], t.lag[:0], 0
	// A trigger armed near the end of a previous run on this tracker must
	// not fire a spurious snapshot on round 1 of this one.
	t.trigger.Store(false)
}

// ObserveRunEnd implements fl.RunEndObserver: the engine reports the
// run's end from every exit path, so an aborted run never shows
// running:true forever.
func (t *Tracker) ObserveRunEnd(completed int, aborted bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.status.Running = false
	t.status.Round = completed
	t.status.Aborted = aborted
}

// ObservePhases implements fl.PhaseObserver, rolling each round's
// wall-clock breakdown into the /status snapshot.
func (t *Tracker) ObservePhases(round int, phases fl.RoundPhases) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.status.LastPhases = phases
	t.status.PhaseTotals.Add(phases)
	if !obs.Enabled() {
		return
	}
	m := series()
	for i, ns := range [...]int64{phases.SampleNS, phases.BroadcastNS, phases.LocalNS,
		phases.CombineNS, phases.EvalNS, phases.CheckpointNS, phases.TotalNS} {
		// Eval and checkpoint (slots 4 and 5) run on a subset of rounds;
		// zero slots would flood their histograms with meaningless
		// sub-microsecond samples.
		if ns == 0 && (i == 4 || i == 5) {
			continue
		}
		m.phase[i].Observe(float64(ns) / 1e9)
	}
}

// ObserveRoundStart implements fl.RoundObserver.
func (t *Tracker) ObserveRoundStart(round, invited int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.status.Invited = invited
	if obs.Enabled() {
		series().invited.Set(float64(invited))
	}
}

// ObserveOutcome implements fl.RoundObserver.
func (t *Tracker) ObserveOutcome(client, done, lag int, failed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if client < 0 || client >= len(t.clients) {
		return
	}
	t.clients[client].Count(done, lag, failed, t.epochs)
	if failed || lag < 0 || done <= 0 {
		t.offline++
	} else {
		t.lag = grow(t.lag, lag)
		t.lag[lag]++
	}
	if done < 0 {
		done = 0
	}
	t.done = grow(t.done, done)
	t.done[done]++
}

// ObserveRoundEnd implements fl.RoundObserver.
func (t *Tracker) ObserveRoundEnd(round, reported int, comm *fl.CommStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.status
	s.Round = round + 1
	s.Reported = reported
	s.UpBytes, s.DownBytes = comm.UpBytes, comm.DownBytes
	s.MeasuredUp, s.MeasuredDown = comm.MeasuredUp, comm.MeasuredDown
	if s.Round == s.TotalRounds {
		s.Running = false
	}
	if obs.Enabled() {
		m := series()
		m.rounds.Inc()
		m.reported.Set(float64(reported))
	}
}

// ObserveDefense implements fl.DefenseObserver: the engine reports each
// round's defensive tallies before ObserveRoundEnd.
func (t *Tracker) ObserveDefense(round, masked, suspects int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.status
	s.MaskedLast, s.SuspectsLast = masked, suspects
	s.MaskedTotal += masked
	s.SuspectsTotal += suspects
	if obs.Enabled() {
		m := series()
		m.masked.Add(uint64(masked))
		m.suspects.Add(uint64(suspects))
	}
}

// ObserveEval implements fl.RoundObserver.
func (t *Tracker) ObserveEval(round int, meanAcc, meanLoss float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.status.EvalRound = round
	t.status.MeanAcc, t.status.MeanLoss = meanAcc, meanLoss
}

// ObserveCheckpoint implements fl.RoundObserver.
func (t *Tracker) ObserveCheckpoint(round int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.status.Checkpoints++
	if obs.Enabled() {
		series().checkpoints.Inc()
	}
}

// Status returns a copy of the current /status snapshot.
func (t *Tracker) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Clients returns a copy of the per-client outcome counts.
func (t *Tracker) Clients() []fl.OutcomeCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]fl.OutcomeCounts(nil), t.clients...)
}

// Stragglers returns a copy of the outcome histograms.
func (t *Tracker) Stragglers() Stragglers {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stragglers{
		DoneEpochs: append([]int(nil), t.done...),
		Lag:        append([]int(nil), t.lag...),
		Offline:    t.offline,
	}
}

// RequestCheckpoint arms the on-demand checkpoint trigger; the next
// completed round emits a snapshot.
func (t *Tracker) RequestCheckpoint() { t.trigger.Store(true) }

// TakeTrigger consumes the armed trigger — wire it as the environment's
// CheckpointPlan.Trigger.
func (t *Tracker) TakeTrigger() bool { return t.trigger.Swap(false) }

func grow(s []int, idx int) []int {
	for len(s) <= idx {
		s = append(s, 0)
	}
	return s
}

var _ fl.RoundObserver = (*Tracker)(nil)
var _ fl.DefenseObserver = (*Tracker)(nil)
var _ fl.PhaseObserver = (*Tracker)(nil)
var _ fl.RunEndObserver = (*Tracker)(nil)
