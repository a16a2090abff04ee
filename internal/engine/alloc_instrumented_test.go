//go:build !race

// The PR 10 extension of the steady-state allocation contract: a warm
// round with telemetry fully attached — the process gate enabled, phase
// timing armed, a control tracker feeding the default registry, and a
// JSONL journal observer writing every round event — must still allocate
// nothing. Timing goes into preallocated per-round slots, the registry's
// hot paths are atomics, and the journal hand-appends into a reused
// buffer.

package engine_test

import (
	"io"
	"testing"

	"fedclust/internal/control"
	"fedclust/internal/engine"
	"fedclust/internal/fl"
	"fedclust/internal/obs"
)

func TestInstrumentedWarmRoundZeroAllocs(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	obs.SetEnabled(true)

	env := goldenEnv(25, 1<<20)
	env.EvalEvery = 2
	tracker := control.NewTracker(env.Local.Epochs)
	tracker.ObserveRunStart("alloc-instrumented", env.Rounds, len(env.Clients), 0)
	env.Observer = fl.MultiObserver(tracker, obs.NewJournal(io.Discard, env.Local.Epochs))
	d := engine.New(env, "alloc-instrumented")
	wireFedAvg(d)

	round := 0
	step := func() {
		// Run's per-round sequence minus checkpointing (no plan here):
		// FinishRound hands the phase slots to the tracker, which feeds
		// the registry, and the round event to the journal.
		d.RunRound(round)
		d.FinishRound(round)
		round++
	}
	// Warm the runtime, the registry's round series, the tracker's
	// histograms, and the journal's event buffer.
	for round < 4 {
		step()
	}
	d.Res.Comm.PerRound = append(make([]fl.RoundComm, 0, 1<<12), d.Res.Comm.PerRound...)
	d.Res.History = append(make([]fl.RoundMetrics, 0, 1<<12), d.Res.History...)

	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("instrumented warm round allocates %v times, want 0", n)
	}
}
