//go:build !race

// Steady-state allocation regression tests for the round engine: with
// the per-environment runtime cached and every parallel phase on the
// persistent executor, a warm round must allocate nothing — and a warm
// whole FedAvg run only its Result skeleton. Excluded under -race
// because the race runtime instruments allocations.

package engine_test

import (
	"testing"

	"fedclust/internal/data"
	"fedclust/internal/engine"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/nn"
	"fedclust/internal/partition"
	"fedclust/internal/rng"
	"fedclust/internal/scenario"
)

// wireFedAvg wires the FedAvg hooks onto a driver without running it —
// the per-round harness drives RunRound directly.
func wireFedAvg(d *engine.RoundDriver) {
	global := d.InitGlobal()
	starts := d.StartsBuf()
	d.Hooks.Broadcast = func(int) [][]float64 {
		for i := range starts {
			starts[i] = global
		}
		return starts
	}
	d.Hooks.Aggregate = func(_ int, reported []int) {
		vecs, ws := d.Gather(reported)
		fl.WeightedAverageInto(global, vecs, ws)
	}
	d.Hooks.Served = func(int) []float64 { return global }
}

// lenetAllocEnv is the Table-I shape in small: LeNet-5 at width 0.5 over
// 3×16×16 images, six clients whose sizes leave six distinct
// n % BatchSize tails (and as many evaluation tails), so every layer
// workspace of a pooled model is reshaped more often than any fixed-size
// header cache would hold.
func lenetAllocEnv(dtype fl.DType) *fl.Env {
	train, test := data.Generate(data.SynthConfig{
		Name: "alloc16", C: 3, H: 16, W: 16, Classes: 4, TrainPerClass: 22, TestPerClass: 10,
		ClassSep: 1, Noise: 1, Seed: 25,
	})
	var assign partition.Assignment
	next := 0
	for _, n := range []int{20, 13, 7, 15, 9, 24} {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = next + i
		}
		assign = append(assign, idx)
		next += n
	}
	return &fl.Env{
		Clients:   fl.BuildClients(train, test, assign, rng.New(25)),
		Factory:   func(r *rng.Rng) *nn.Sequential { return nn.LeNet5(r, 3, 16, 16, 4, 0.5) },
		Rounds:    1 << 20,
		Local:     fl.LocalConfig{Epochs: 1, BatchSize: 10, LR: 0.05, Momentum: 0.9},
		Seed:      25,
		EvalEvery: 2,
		EvalBatch: 8,
		Workers:   3,
		DType:     dtype,
	}
}

// TestRoundDriverWarmRoundZeroAllocs: a warm RunRound — broadcast, the parallel client phase over the pooled models,
// aggregation, comm accounting, and (every other round) the full
// evaluation protocol — performs zero steady-state heap allocations,
// on the golden MLP workload and on LeNet-5 in both dtypes.
// The only per-round appends, Comm.PerRound and Res.History, are
// pre-grown so the test measures the round itself rather than slice
// growth.
func TestRoundDriverWarmRoundZeroAllocs(t *testing.T) {
	mlp := goldenEnv(21, 1<<20)
	mlp.EvalEvery = 2
	for _, tc := range []struct {
		name string
		env  *fl.Env
		runs int
	}{
		{"mlp", mlp, 200},
		{"lenet/float64", lenetAllocEnv(fl.Float64), 10},
		{"lenet/float32", lenetAllocEnv(fl.Float32), 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := engine.New(tc.env, "alloc")
			wireFedAvg(d)

			round := 0
			step := func() {
				d.RunRound(round)
				round++
			}
			// Warm everything: worker scratch, model pool, eval scratch, the
			// Result's PerClientAcc buffer (first eval allocates it once).
			for round < 4 {
				step()
			}
			d.Res.Comm.PerRound = append(make([]fl.RoundComm, 0, 1<<12), d.Res.Comm.PerRound...)
			d.Res.History = append(make([]fl.RoundMetrics, 0, 1<<12), d.Res.History...)

			if n := testing.AllocsPerRun(tc.runs, step); n != 0 {
				t.Fatalf("warm round allocates %v times, want 0", n)
			}
		})
	}
}

// TestRoundDriverWarmScenarioRoundZeroAllocs: the scenario layer must
// preserve the PR 3 invariant — a warm round with stragglers, dropouts,
// partial-work weighting, and the per-client outcome fill allocates
// nothing. Every scenario outcome query reseeds a stack Rng, the
// outcome/mask buffers are client-indexed arrays in the cached runtime,
// and the reported set reuses the runtime's buffer.
func TestRoundDriverWarmScenarioRoundZeroAllocs(t *testing.T) {
	env := goldenEnv(23, 1<<20)
	env.EvalEvery = 2
	env.Participation.Scenario = scenario.New(scenario.Config{
		StragglerFrac: 0.5, SlowdownMax: 4, DropoutRate: 0.25,
		Deadline: 0.75, Jitter: 0.2,
	}, 23, len(env.Clients))
	d := engine.New(env, "alloc-scenario")
	wireFedAvg(d)

	round := 0
	step := func() {
		d.RunRound(round)
		round++
	}
	for round < 4 {
		step()
	}
	d.Res.Comm.PerRound = append(make([]fl.RoundComm, 0, 1<<12), d.Res.Comm.PerRound...)
	d.Res.History = append(make([]fl.RoundMetrics, 0, 1<<12), d.Res.History...)

	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("warm scenario round allocates %v times, want 0", n)
	}
}

// TestFedAvgWarmRunAllocs: a warm full FedAvg run on a cached
// environment stays within the Result-skeleton budget (driver + Result +
// hook closures + History/PerClientAcc). The bound is deliberately tight
// — the PR 3 acceptance ceiling is 50.
func TestFedAvgWarmRunAllocs(t *testing.T) {
	env := goldenEnv(22, 2)
	methods.FedAvg{}.Run(env) // build + warm the cached runtime
	if n := testing.AllocsPerRun(20, func() {
		methods.FedAvg{}.Run(env)
	}); n > 20 {
		t.Fatalf("warm FedAvg run allocates %v times, want <= 20", n)
	}
}
