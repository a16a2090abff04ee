package fl

import (
	"fmt"
	"runtime"

	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/sched"
	"fedclust/internal/wire"
)

// ModelFactory builds a network with a deterministic architecture whose
// initial weights are drawn from the supplied stream. Every call with the
// same stream state yields an identical model, so all methods in a
// comparison start from the same w₀.
type ModelFactory func(r *rng.Rng) *nn.Sequential

// Env is everything a federated method needs to run: the client
// population, the model architecture, round/local-training configuration,
// and deterministic randomness.
type Env struct {
	Clients []*Client
	Factory ModelFactory
	Rounds  int
	Local   LocalConfig
	Seed    uint64
	// EvalEvery controls how often personalized accuracy is recorded
	// (every k rounds; 0 means only after the final round).
	EvalEvery int
	// EvalBatch is the evaluation batch size (default 64 when 0).
	EvalBatch int
	// Workers caps the parallel client executor (default GOMAXPROCS).
	Workers int
	// DType selects the numeric compute path for local training and
	// evaluation (zero value Float64 keeps the golden reference path;
	// Float32 enables the SIMD float32 kernels).
	DType DType
	// Codec selects the uplink parameter codec (zero value Float64 is
	// the exact reference path). Sparse codecs (wire.TopK,
	// wire.TopKQuant8) sparsify full-parameter uplinks with per-client
	// error feedback; the downlink stays dense under Codec.Downlink().
	Codec wire.Codec
	// TopKFrac is the kept-coordinate fraction for sparse codecs
	// (0 means fl.DefaultTopKFrac; ignored by dense codecs).
	TopKFrac float64
	// Participation says who reports each round (zero value: every
	// client, every round).
	Participation Participation
	// Remote, when non-nil, routes the local passes of the clients it
	// Owns to remote executors (internal/transport): the round engine
	// ships them work orders instead of training in-process, measures
	// the actual wire traffic into CommStats, and maps transport
	// failures onto the round's reported set. nil keeps every client
	// in-process.
	Remote RemoteTrainer
	// Ckpt, when non-nil, attaches checkpointing: the round engine emits
	// snapshots per its schedule/trigger and resumes from Ckpt.Resume.
	// nil disables the machinery entirely.
	Ckpt *CheckpointPlan
	// Observer, when non-nil, receives live round progress (the control
	// plane's feed). nil costs nothing.
	Observer RoundObserver
	// Aggregator, when non-nil, replaces the plain weighted average at
	// every server-side combine seam (global, per-cluster, and the
	// semi-async cache/buffer folds) with a robust strategy — see
	// Aggregator. nil keeps the bit-exact historical fast path.
	Aggregator Aggregator

	// shared is the lazily created per-Env scratch holder (see
	// EnvShared); behind a pointer so Env stays copyable.
	shared *EnvShared
}

// Check rejects a degenerate environment, its local config included.
func (e *Env) Check() error {
	if len(e.Clients) == 0 {
		return fmt.Errorf("fl: Env has no clients")
	}
	if e.Factory == nil {
		return fmt.Errorf("fl: Env has no model factory")
	}
	if e.Rounds < 1 {
		return fmt.Errorf("fl: Rounds must be positive, got %d", e.Rounds)
	}
	if e.TopKFrac < 0 || e.TopKFrac > 1 {
		return fmt.Errorf("fl: TopKFrac must lie in [0,1], got %g", e.TopKFrac)
	}
	return e.Local.Check()
}

// NewModel builds the canonical initial model (same weights every call).
func (e *Env) NewModel() *nn.Sequential {
	return e.Factory(rng.New(e.Seed).Derive(0x10de1))
}

// ClientRng returns the deterministic stream for a client in a round.
func (e *Env) ClientRng(clientID, round int) *rng.Rng {
	r := &rng.Rng{}
	e.ClientRngInto(r, clientID, round)
	return r
}

// ClientRngInto reseeds dst to exactly the stream ClientRng returns,
// without allocating — the visit hot path keys one persistent Rng per
// lane.
func (e *Env) ClientRngInto(dst *rng.Rng, clientID, round int) {
	var root rng.Rng
	root.Reseed(e.Seed)
	root.DeriveInto(dst, 0xc11e47, uint64(clientID), uint64(round))
}

// EvalBatchSize returns the effective evaluation batch size.
func (e *Env) EvalBatchSize() int {
	if e.EvalBatch > 0 {
		return e.EvalBatch
	}
	return 64
}

// WorkerCount returns the effective parallelism of the client executor.
func (e *Env) WorkerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelClients runs fn(i) for every client index in [0, n) across the
// process-wide executor. fn must be safe to call concurrently for
// distinct indices.
func (e *Env) ParallelClients(n int, fn func(i int)) {
	sched.Default().Run(n, e.WorkerCount(), func(_, i int) { fn(i) })
}

// ParallelClientsWorker is ParallelClients with the executing worker's
// stable id passed to fn, so callers can key per-worker scratch state
// (lanes, buffers) without locking: worker w only ever runs on one
// goroutine at a time.
func (e *Env) ParallelClientsWorker(n int, fn func(worker, i int)) {
	sched.Default().Run(n, e.WorkerCount(), fn)
}

// ShouldEval reports whether metrics should be recorded after round r
// (0-based; the final round always evaluates).
func (e *Env) ShouldEval(r int) bool {
	if r == e.Rounds-1 {
		return true
	}
	return e.EvalEvery > 0 && (r+1)%e.EvalEvery == 0
}

// TrainSizes returns each client's training-set size as float weights for
// aggregation.
func (e *Env) TrainSizes() []float64 {
	w := make([]float64, len(e.Clients))
	for i, c := range e.Clients {
		w[i] = float64(c.Train.Len())
	}
	return w
}
