package engine_test

// Parallelism-determinism suite: results must be bit-identical however
// the work is spread — any Env.Workers, any GOMAXPROCS, first run or
// warm cached runtime. The guarantees under test: client tasks and
// evaluation are partitioning-insensitive (per-client work depends only
// on the (client, round) stream, never on which worker runs it), the
// executor's dynamic index handoff does not reorder any aggregation
// arithmetic (Locals are written to fixed arena slots and folded in
// client order), and every product runs on the goroutine of the task
// that calls it, with a per-element summation order fixed by its shapes.

import (
	"runtime"
	"testing"

	"fedclust/internal/core"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/scenario"
	"fedclust/internal/sched"
)

// determinismTrainers covers the default Local hook (FedAvg), a custom
// Local hook with per-visit rng (IFCA), and the one-shot clustering +
// clustered FedAvg schedule (FedClust).
func determinismTrainers() []fl.Trainer {
	return []fl.Trainer{
		methods.FedAvg{},
		methods.IFCA{K: 2},
		&core.FedClust{},
	}
}

// dropoutsAndStragglers is the fault model of the worker-count matrices:
// a fifth of the clients offline each round and a third of them slow, so
// the reported set, the partial passes and the mask all vary by round.
func dropoutsAndStragglers(env *fl.Env) {
	env.Participation.Scenario = scenario.New(scenario.Config{
		StragglerFrac: 0.3, SlowdownMax: 4, DropoutRate: 0.2, Deadline: 0.75, Jitter: 0.2,
	}, env.Seed, len(env.Clients))
}

func TestResultsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, tr := range determinismTrainers() {
		var want string
		for _, workers := range []int{1, 2, 8} {
			env := goldenEnv(31, 3)
			dropoutsAndStragglers(env)
			env.EvalEvery = 1
			env.Workers = workers
			got := fingerprint(tr.Run(env))
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: workers=%d diverged:\n  got  %s\n  want %s",
					tr.Name(), workers, got, want)
			}
		}
	}
}

func TestResultsBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	for _, tr := range determinismTrainers() {
		var want string
		for _, procs := range []int{1, 2, 4} {
			old := runtime.GOMAXPROCS(procs)
			env := goldenEnv(32, 3)
			env.EvalEvery = 1
			env.Workers = 4
			got := fingerprint(tr.Run(env))
			runtime.GOMAXPROCS(old)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: GOMAXPROCS=%d diverged:\n  got  %s\n  want %s",
					tr.Name(), procs, got, want)
			}
		}
	}
}

// TestWorkersOneStartsNoRegion: Env.Workers = 1 is one goroutine. A
// FedAvg run at GOMAXPROCS 2 starts no executor region, even with a
// model whose products are large: 16×64 · 64×256 per training batch and
// 64×64 · 64×256 per evaluation batch, each over 64K multiply-adds.
func TestWorkersOneStartsNoRegion(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	env := goldenEnv(35, 2)
	env.Factory = func(fr *rng.Rng) *nn.Sequential { return nn.MLP(fr, 64, 256, 4) }
	env.EvalBatch = 64
	env.Workers = 1
	before := sched.Default().Stats().Regions
	methods.FedAvg{}.Run(env)
	if got := sched.Default().Stats().Regions - before; got != 0 {
		t.Fatalf("a Workers = 1 run started %d executor regions, want 0", got)
	}
}

// TestScenarioResultsBitIdenticalAcrossWorkerCounts extends the matrix
// to scenario-enabled rounds: straggler rates 0 and 0.3 (with dropouts
// and jitter alongside) × Workers 1/2/8. The scenario outcomes are
// computed serially before the parallel phase and keyed only by
// (client, round), so which worker trains a straggler's partial pass —
// or skips a dropout — must not move a single bit. The matrix also
// covers both scenario interpretations: synchronous partial work
// (FedAvg, IFCA, FedClust) and semi-async late delivery (FedAvgStale,
// FedBuff).
func TestScenarioResultsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	trainers := append(determinismTrainers(),
		methods.FedAvgStale{}, methods.FedBuff{})
	for _, rate := range []float64{0, 0.3} {
		for _, tr := range trainers {
			var want string
			for _, workers := range []int{1, 2, 8} {
				env := goldenEnv(34, 3)
				env.EvalEvery = 1
				env.Workers = workers
				env.Participation.Scenario = scenario.New(scenario.Config{
					StragglerFrac: rate, SlowdownMax: 4, DropoutRate: rate / 2,
					Deadline: 0.75, Jitter: 0.2,
				}, 34, len(env.Clients))
				got := fingerprint(tr.Run(env))
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%s (straggler rate %v): workers=%d diverged:\n  got  %s\n  want %s",
						tr.Name(), rate, workers, got, want)
				}
			}
		}
	}
}

// TestResultsBitIdenticalOnWarmRuntime: rerunning a method on the same
// environment reuses the cached runtime (model pool, arenas, scratch);
// the results must match the cold run exactly, and an interleaved other
// method must not perturb either — nor an interleaved scenario run,
// whose last round's outcomes stay in the cached runtime until the next
// run resets every client to its all-on-time outcome. A dtype switch on
// the warm environment — Float64, Float32, Float64 — must match a cold
// run of each dtype: the lanes' networks are built in one dtype.
func TestResultsBitIdenticalOnWarmRuntime(t *testing.T) {
	env := goldenEnv(33, 3)
	env.EvalEvery = 1
	cold := fingerprint(methods.FedAvg{}.Run(env))
	if warm := fingerprint(methods.FedAvg{}.Run(env)); warm != cold {
		t.Fatalf("warm FedAvg diverged:\n  cold %s\n  warm %s", cold, warm)
	}
	methods.IFCA{K: 2}.Run(env)
	if warm := fingerprint(methods.FedAvg{}.Run(env)); warm != cold {
		t.Fatalf("FedAvg after interleaved IFCA diverged:\n  cold %s\n  warm %s", cold, warm)
	}
	env.Participation.Scenario = scenario.New(scenario.Config{StragglerFrac: 0.5, DropoutRate: 0.3}, 9, len(env.Clients))
	methods.FedAvg{}.Run(env)
	env.Participation.Scenario = nil
	if warm := fingerprint(methods.FedAvg{}.Run(env)); warm != cold {
		t.Fatalf("FedAvg after an interleaved scenario run diverged:\n  cold %s\n  warm %s", cold, warm)
	}
	env32 := goldenEnv(33, 3)
	env32.EvalEvery, env32.DType = 1, fl.Float32
	cold32 := fingerprint(methods.FedAvg{}.Run(env32))
	env.DType = fl.Float32
	if warm := fingerprint(methods.FedAvg{}.Run(env)); warm != cold32 {
		t.Fatalf("Float32 FedAvg on a warm Float64 runtime diverged:\n  cold %s\n  warm %s", cold32, warm)
	}
	env.DType = fl.Float64
	if warm := fingerprint(methods.FedAvg{}.Run(env)); warm != cold {
		t.Fatalf("Float64 FedAvg after a Float32 run on the warm runtime diverged:\n  cold %s\n  warm %s", cold, warm)
	}
}
