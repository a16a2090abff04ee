package engine_test

// Engine telemetry semantics: wall-clock measurement must never feed
// back into learning (bit-identity with the gate on vs. off), phase
// observations must arrive once per round with sane contents, the
// run-end observation must fire on every exit path — including a hook
// panicking mid-run — and outcomes are observed as the method's delivery
// model books them.

import (
	"bytes"
	"io"
	"testing"

	"fedclust/internal/engine"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/obs"
	"fedclust/internal/scenario"
)

// TestTelemetryBitIdentical: the same golden workload run bare and run
// with the gate up plus a journal observer attached produces bit-equal
// results — accuracy, history, traffic, everything fingerprint reads.
func TestTelemetryBitIdentical(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)

	obs.SetEnabled(false)
	bare := fingerprint(methods.FedAvg{}.Run(goldenEnv(77, 6)))

	obs.SetEnabled(true)
	env := goldenEnv(77, 6)
	env.Observer = obs.NewJournal(io.Discard, env.Local.Epochs)
	instrumented := fingerprint(methods.FedAvg{}.Run(env))

	if instrumented != bare {
		t.Errorf("telemetry changed the learning outcome\n bare: %s\n inst: %s", bare, instrumented)
	}
}

// phaseCapture is a RoundObserver that records phase and run-end
// observations (everything else no-ops).
type phaseCapture struct {
	phases    []fl.RoundPhases
	rounds    []int
	completed int
	aborted   bool
	endCalls  int
}

func (c *phaseCapture) ObserveRunStart(string, int, int, int)   {}
func (c *phaseCapture) ObserveRoundStart(int, int)              {}
func (c *phaseCapture) ObserveOutcome(int, int, int, bool)      {}
func (c *phaseCapture) ObserveRoundEnd(int, int, *fl.CommStats) {}
func (c *phaseCapture) ObserveEval(int, float64, float64)       {}
func (c *phaseCapture) ObserveCheckpoint(int)                   {}
func (c *phaseCapture) ObservePhases(round int, p fl.RoundPhases) {
	c.rounds = append(c.rounds, round)
	c.phases = append(c.phases, p)
}
func (c *phaseCapture) ObserveRunEnd(completed int, aborted bool) {
	c.completed, c.aborted, c.endCalls = completed, aborted, c.endCalls+1
}

// TestPhaseObservations: an observer implementing fl.PhaseObserver gets
// one observation per round with timing in the slots that actually ran —
// even with the process gate down (the observer's interest arms timing).
func TestPhaseObservations(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	obs.SetEnabled(false)

	env := goldenEnv(31, 4)
	env.EvalEvery = 2
	capt := &phaseCapture{}
	env.Observer = capt
	methods.FedAvg{}.Run(env)

	if len(capt.phases) != env.Rounds {
		t.Fatalf("got %d phase observations, want %d", len(capt.phases), env.Rounds)
	}
	for i, p := range capt.phases {
		if capt.rounds[i] != i {
			t.Errorf("observation %d is for round %d", i, capt.rounds[i])
		}
		if p.LocalNS <= 0 || p.TotalNS <= 0 {
			t.Errorf("round %d: empty local/total timing: %+v", i, p)
		}
		if p.TotalNS < p.LocalNS {
			t.Errorf("round %d: total %d < local %d", i, p.TotalNS, p.LocalNS)
		}
		evalRound := env.EvalEvery > 0 && ((i+1)%env.EvalEvery == 0 || i == env.Rounds-1)
		if evalRound && p.EvalNS <= 0 {
			t.Errorf("round %d evaluated but EvalNS = %d", i, p.EvalNS)
		}
		if !evalRound && p.EvalNS != 0 {
			t.Errorf("round %d did not evaluate but EvalNS = %d", i, p.EvalNS)
		}
	}
	if capt.endCalls != 1 || capt.aborted || capt.completed != env.Rounds {
		t.Errorf("run end: calls=%d completed=%d aborted=%v", capt.endCalls, capt.completed, capt.aborted)
	}
}

// TestRunEndObservedOnPanic: a hook panicking mid-run still produces the
// run-end observation (aborted, with the completed-round count) as the
// panic unwinds — a control plane never shows a dead run as training.
func TestRunEndObservedOnPanic(t *testing.T) {
	env := goldenEnv(33, 6)
	capt := &phaseCapture{}
	env.Observer = capt

	d := engine.New(env, "panic-run")
	global := d.InitGlobal()
	starts := d.StartsBuf()
	d.Hooks.Broadcast = func(int) [][]float64 {
		for i := range starts {
			starts[i] = global
		}
		return starts
	}
	d.Hooks.Aggregate = func(round int, reported []int) {
		if round == 2 {
			panic("aggregate blew up")
		}
		vecs, ws := d.Gather(reported)
		fl.WeightedAverageInto(global, vecs, ws)
	}
	d.Hooks.Served = func(int) []float64 { return global }

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("run did not panic")
			}
		}()
		d.Run()
	}()

	if capt.endCalls != 1 {
		t.Fatalf("run end observed %d times, want 1", capt.endCalls)
	}
	if !capt.aborted || capt.completed != 2 {
		t.Errorf("abort observation: completed=%d aborted=%v, want 2/true", capt.completed, capt.aborted)
	}
}

// BenchmarkRoundDriverRoundInstrumented is BenchmarkRoundDriverRound
// with telemetry fully attached (gate up, a journal whose tracker feeds
// the registry, discarding its lines) — the whole-round overhead pair
// for BENCH_pr10.json. allocs/op must match the bare benchmark:
// attaching telemetry adds zero allocations.
func BenchmarkRoundDriverRoundInstrumented(b *testing.B) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	obs.SetEnabled(true)
	env := benchEnv(1)
	env.Observer = obs.NewJournal(io.Discard, env.Local.Epochs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		methods.FedAvg{}.Run(env)
	}
}

// TestStragglerOutcomesFollowTheDeliveryModel: a journal's outcome
// classes follow the method's delivery model. A synchronous method folds
// a straggler's partial pass in the round it runs, so every report is on
// time or partial and none is late; a semi-async method's slow clients
// run their full pass and deliver rounds later, so only on-time updates
// are reported in their own round, and the slow ones are booked late,
// none offline (the scenario drops no one). At SlowdownMax 4 the
// stragglers finish no epoch by the deadline, and FedBuff still books
// them late: their full pass arrives.
func TestStragglerOutcomesFollowTheDeliveryModel(t *testing.T) {
	for _, c := range []struct {
		trainer  fl.Trainer
		async    bool
		slowdown float64
	}{{methods.FedAvg{}, false, 2}, {methods.FedBuff{}, true, 2}, {methods.FedBuff{}, true, 4}} {
		env := goldenEnv(77, 6)
		env.Participation.Scenario = scenario.New(scenario.Config{StragglerFrac: 0.5, SlowdownMax: c.slowdown, Deadline: 1}, 77, len(env.Clients))
		var buf bytes.Buffer
		env.Observer = obs.NewJournal(&buf, env.Local.Epochs)
		c.trainer.Run(env)
		events, _ := obs.ReadEvents(buf.Bytes())
		var partial, late int
		for _, ev := range events {
			if ev.Event != "round" {
				continue
			}
			partial, late = partial+ev.Partial, late+ev.Late
			if c.async && (ev.OnTime != ev.Reported || ev.Offline != 0) || !c.async && (ev.OnTime+ev.Partial != ev.Reported || ev.Late != 0) {
				t.Errorf("%s slowdown %v round %d: reported %d, on_time %d, partial %d, late %d, offline %d",
					c.trainer.Name(), c.slowdown, ev.Round, ev.Reported, ev.OnTime, ev.Partial, ev.Late, ev.Offline)
			}
		}
		if c.async && late == 0 || !c.async && partial == 0 {
			t.Errorf("%s slowdown %v: %d partial and %d late outcomes over the run: the stragglers' outcome class is never booked",
				c.trainer.Name(), c.slowdown, partial, late)
		}
	}
}
