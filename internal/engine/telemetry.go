package engine

import (
	"fedclust/internal/fl"
	"fedclust/internal/obs"
)

// Phase slots for the per-round wall-clock breakdown. RunRound
// accumulates elapsed nanoseconds into the cached runtime's ph array via
// envState.lap — one obs.Now read per phase boundary, no allocations —
// and FinishRound hands the filled slots to the environment observer's
// ObservePhases.
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

// startRoundTiming arms the per-round phase clock when the run's observer
// wants phase events. The per-visit hot path is untouched either way —
// only phase boundaries read the clock.
func (es *envState) startRoundTiming(ob fl.RoundObserver) {
	_, es.timing = ob.(fl.PhaseObserver)
	if !es.timing {
		return
	}
	now := obs.Now()
	es.roundT0, es.stamp = now, now
	for i := range es.ph {
		es.ph[i] = 0
	}
}

// FinishRound closes a round's telemetry: stamps the total and hands the
// environment observer its closing ObservePhases event. Run calls it
// after maybeCheckpoint so the round's journal line carries the
// checkpoint; harnesses that drive RunRound directly call it themselves
// when they want the phase event per round. Allocation-free.
func (d *RoundDriver) FinishRound(round int) {
	es := d.es
	if !es.timing {
		return
	}
	es.ph[phTotal] = obs.Now() - es.roundT0
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
