package engine_test

// Concurrency coverage: these tests are written to put the executor, the
// per-worker lanes, and the evaluation phase under real contention so
// `go test -race` can catch unsynchronized access. The
// seed's evaluation path shared one nn.Sequential across goroutines —
// whose layers cache forward activations — which the per-worker
// clone/pool design removed.

import (
	"sync/atomic"
	"testing"

	"fedclust/internal/core"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/nn"
	"fedclust/internal/sched"
)

// TestParallelForWorkerIDsAreGoroutineStable: worker ids must be disjoint
// across concurrently running goroutines, so per-worker state needs no
// locks. Each worker slot counts re-entrant use; any overlap trips the
// guard (and the -race detector via the unsynchronized busy flags).
func TestParallelForWorkerIDsAreGoroutineStable(t *testing.T) {
	const n, workers = 500, 8
	busy := make([]int32, workers)
	var visited int64
	sched.Default().Run(n, workers, func(w, i int) {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of range", w)
		}
		if !atomic.CompareAndSwapInt32(&busy[w], 0, 1) {
			t.Errorf("worker slot %d used concurrently", w)
		}
		atomic.AddInt64(&visited, 1)
		atomic.StoreInt32(&busy[w], 0)
	})
	if visited != n {
		t.Fatalf("visited %d indices, want %d", visited, n)
	}
}

// TestParallelForWorkerCoversAllIndices: every index is run exactly once.
func TestParallelForWorkerCoversAllIndices(t *testing.T) {
	const n = 257
	counts := make([]int32, n)
	sched.Default().Run(n, 7, func(_, i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d run %d times", i, c)
		}
	}
}

// TestLanesConcurrentTraining: hammer the per-worker lanes with parallel
// visits (the engine's client phase) so -race sees any state two lanes
// share.
func TestLanesConcurrentTraining(t *testing.T) {
	env := goldenEnv(11, 1)
	env.Workers = 6
	lanes := fl.NewLanes(env)
	w0 := nn.FlattenParams(env.NewModel())
	outs := make([][]float64, len(env.Clients))
	// Many passes over the client set so workers contend.
	for pass := 0; pass < 3; pass++ {
		env.ParallelClientsWorker(len(env.Clients), func(w, i int) {
			if outs[i] == nil {
				outs[i] = make([]float64, len(w0))
			}
			lanes[w].Visit(&fl.Visit{
				Client: i, Round: pass, Layer: fl.FullParams, Cfg: env.Local,
				Start: w0, Data: env.Clients[i].Train,
			}, outs[i])
		})
	}
}

// TestConcurrentEvaluatePersonalizedSharedModel: the historical race — a
// single served model evaluated by every client in parallel. The
// engine's evaluation phase loads it into each worker's own lane, so it
// must stay clean under -race and return the same numbers as serial
// evaluation.
func TestConcurrentEvaluatePersonalizedSharedModel(t *testing.T) {
	env := goldenEnv(12, 1)
	shared := nn.FlattenParams(env.NewModel())
	env.Workers = 8
	par := evalServed(env, func(int) []float64 { return shared })
	env.Workers = 1
	ser := evalServed(env, func(int) []float64 { return shared })

	if par.FinalAcc != ser.FinalAcc || par.FinalLoss != ser.FinalLoss {
		t.Fatalf("parallel eval diverged: acc %v vs %v, loss %v vs %v", par.FinalAcc, ser.FinalAcc, par.FinalLoss, ser.FinalLoss)
	}
	for i := range par.PerClientAcc {
		if par.PerClientAcc[i] != ser.PerClientAcc[i] {
			t.Fatalf("client %d accuracy diverged: %v vs %v", i, par.PerClientAcc[i], ser.PerClientAcc[i])
		}
	}
}

// TestRuntimeClaimFallback: when the environment's cached runtime slot
// is held by someone else, a run must transparently build private state
// — and produce bit-identical results.
func TestRuntimeClaimFallback(t *testing.T) {
	env := goldenEnv(14, 2)
	env.EvalEvery = 1
	want := methods.FedAvg{}.Run(env)

	v, ok := env.Shared().AcquireRuntime()
	if !ok {
		t.Fatal("runtime slot not claimable between runs")
	}
	got := methods.FedAvg{}.Run(env) // must fall back to private state
	env.Shared().ReleaseRuntime(v)

	if got.FinalAcc != want.FinalAcc || got.FinalLoss != want.FinalLoss {
		t.Fatalf("fallback run diverged: acc %v/%v loss %v/%v",
			got.FinalAcc, want.FinalAcc, got.FinalLoss, want.FinalLoss)
	}
	for i := range want.PerClientAcc {
		if got.PerClientAcc[i] != want.PerClientAcc[i] {
			t.Fatalf("fallback run: client %d acc diverged", i)
		}
	}
	// The released slot must still work afterwards.
	if res := (methods.FedAvg{}).Run(env); res.FinalAcc != want.FinalAcc {
		t.Fatal("cached runtime corrupted by fallback run")
	}
}

// TestTrainersUnderContention runs the engine-backed trainers with more
// workers than clients so the pool, arena writes, and evaluation all
// overlap aggressively; -race verifies the round loop is clean.
func TestTrainersUnderContention(t *testing.T) {
	trainers := []fl.Trainer{
		methods.FedAvg{},
		methods.CFL{WarmupRounds: 1, Eps1: 0.8, Eps2: 0.1},
		methods.IFCA{K: 2},
		&core.FedClust{},
	}
	for _, tr := range trainers {
		env := goldenEnv(13, 2)
		env.Workers = 16
		env.EvalEvery = 1
		res := tr.Run(env)
		if len(res.PerClientAcc) != len(env.Clients) {
			t.Fatalf("%s: missing per-client accuracies", res.Method)
		}
	}
}
