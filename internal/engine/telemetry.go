package engine

import (
	"sync"

	"fedclust/internal/fl"
	"fedclust/internal/obs"
)

// Phase slots for the per-round wall-clock breakdown. RunRound
// accumulates elapsed nanoseconds into the cached runtime's ph array via
// envState.lap — one obs.Now read per phase boundary, no allocations —
// and FinishRound flushes the filled slots into the metrics registry and
// the environment observer's ObservePhases.
const (
	phSample = iota
	phBroadcast
	phLocal
	phCombine
	phEval
	phCheckpoint
	phTotal
	phCount
)

var phaseNames = [phCount]string{
	"sample", "broadcast", "local", "combine", "eval", "checkpoint", "total",
}

// engineMetrics is the engine's bundle in the process registry, built
// once on first flush (registration allocates; flushing does not).
type engineMetrics struct {
	phase       [phCount]*obs.Histogram
	rounds      *obs.Counter
	checkpoints *obs.Counter
	masked      *obs.Counter
	suspects    *obs.Counter
	invited     *obs.Gauge
	reported    *obs.Gauge
}

var (
	engOnce sync.Once
	engM    *engineMetrics
)

func engineM() *engineMetrics {
	engOnce.Do(func() {
		r := obs.Default()
		m := &engineMetrics{}
		for i, name := range phaseNames {
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
		engM = m
	})
	return engM
}

// lap closes the current phase segment: the nanoseconds since the last
// boundary accumulate into slot and the boundary advances. A no-op when
// the round is not being timed, so an untelemetered round pays one bool
// check per phase.
func (es *envState) lap(slot int) {
	if !es.timing {
		return
	}
	now := obs.Now()
	es.ph[slot] += now - es.stamp
	es.stamp = now
}

// startRoundTiming arms the per-round phase clock. Timing is on when the
// process-wide telemetry gate is up or the run's observer wants phase
// events; either way the per-visit hot path is untouched — only phase
// boundaries read the clock.
func (es *envState) startRoundTiming(ob fl.RoundObserver) {
	_, wantsPhases := ob.(fl.PhaseObserver)
	es.timing = wantsPhases || obs.Enabled()
	if !es.timing {
		return
	}
	now := obs.Now()
	es.roundT0, es.stamp = now, now
	for i := range es.ph {
		es.ph[i] = 0
	}
}

// FinishRound closes a round's telemetry: stamps the total, flushes the
// phase histograms and round gauges into the process registry, and hands
// the environment observer its closing ObservePhases event. Run calls it
// after maybeCheckpoint so the round's journal line carries the
// checkpoint; harnesses that drive RunRound directly call it themselves
// when they want telemetry flushed per round. Allocation-free once the
// metrics bundle exists.
func (d *RoundDriver) FinishRound(round int) {
	es := d.es
	if !es.timing {
		return
	}
	es.ph[phTotal] = obs.Now() - es.roundT0
	if obs.Enabled() {
		m := engineM()
		for i := phSample; i <= phCombine; i++ {
			m.phase[i].Observe(float64(es.ph[i]) / 1e9)
		}
		// Eval and checkpoint run on a subset of rounds; zero slots would
		// flood their histograms with meaningless sub-microsecond samples.
		if es.ph[phEval] > 0 {
			m.phase[phEval].Observe(float64(es.ph[phEval]) / 1e9)
		}
		if es.ph[phCheckpoint] > 0 {
			m.phase[phCheckpoint].Observe(float64(es.ph[phCheckpoint]) / 1e9)
		}
		m.phase[phTotal].Observe(float64(es.ph[phTotal]) / 1e9)
		m.rounds.Inc()
		m.masked.Add(uint64(es.masked))
		m.suspects.Add(uint64(es.suspects))
		m.invited.Set(float64(es.n))
		m.reported.Set(float64(es.lastReported))
	}
	if po, ok := d.Env.Observer.(fl.PhaseObserver); ok {
		po.ObservePhases(round, fl.RoundPhases{
			SampleNS:     es.ph[phSample],
			BroadcastNS:  es.ph[phBroadcast],
			LocalNS:      es.ph[phLocal],
			CombineNS:    es.ph[phCombine],
			EvalNS:       es.ph[phEval],
			CheckpointNS: es.ph[phCheckpoint],
			TotalNS:      es.ph[phTotal],
		})
	}
}
