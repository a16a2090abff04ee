package fl

// RoundPhases is one round's wall-clock breakdown, in nanoseconds per
// lifecycle phase. The engine accumulates the slots into a preallocated
// per-round scratch while the round runs and hands the filled struct to
// PhaseObserver.ObservePhases once at round end, so phase timing adds no
// allocations to the hot path. Wall-clock values are observational only —
// nothing in the learning path reads them.
type RoundPhases struct {
	// SampleNS covers drawing the scenario's outcomes and the round's
	// reported set.
	SampleNS int64 `json:"sample_ns"`
	// BroadcastNS covers the model downlink: comm accounting, the
	// Broadcast hook, and remote downlink encode for transported clients.
	BroadcastNS int64 `json:"broadcast_ns"`
	// LocalNS covers the parallel local-training phase (all clients'
	// LocalUpdate work, including remote round-trips overlapped with it).
	LocalNS int64 `json:"local_ns"`
	// CombineNS covers non-finite masking, update folding, uplink
	// accounting, and aggregation into the global model.
	CombineNS int64 `json:"combine_ns"`
	// EvalNS covers served-model evaluation on rounds that evaluate.
	EvalNS int64 `json:"eval_ns"`
	// CheckpointNS covers checkpoint encode + sink on rounds that snapshot.
	CheckpointNS int64 `json:"checkpoint_ns"`
	// TotalNS is the whole round wall time (sample through checkpoint);
	// it can exceed the sum of the named phases by untimed glue.
	TotalNS int64 `json:"total_ns"`
}

// Add accumulates other into p slot-wise (for run-total rollups).
func (p *RoundPhases) Add(other RoundPhases) {
	p.SampleNS += other.SampleNS
	p.BroadcastNS += other.BroadcastNS
	p.LocalNS += other.LocalNS
	p.CombineNS += other.CombineNS
	p.EvalNS += other.EvalNS
	p.CheckpointNS += other.CheckpointNS
	p.TotalNS += other.TotalNS
}

// PhaseObserver is an optional extension of RoundObserver: observers that
// implement it receive each round's phase timing. ObservePhases fires
// once per round, after every other per-round observation (ObserveRoundEnd,
// ObserveEval, ObserveCheckpoint), so an implementation can treat it as
// the round's closing event. The struct is passed by value; the engine
// reuses its scratch immediately after the call returns.
type PhaseObserver interface {
	ObservePhases(round int, phases RoundPhases)
}

// RunEndObserver is an optional extension of RoundObserver: observers
// that implement it learn when the run stops, however it stops.
// completed is the number of completed rounds; aborted is true when the
// run ended before reaching its configured total (context abort, error,
// or panic unwinding through the driver).
type RunEndObserver interface {
	ObserveRunEnd(completed int, aborted bool)
}
