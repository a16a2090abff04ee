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

// Tee fans observations out to several observers in order. It forwards
// the optional extensions (DefenseObserver, PhaseObserver,
// RunEndObserver) to whichever members implement them, so a control-plane
// tracker and a round journal can share Env.Observer. Nil members are
// skipped; a Tee of zero or one non-nil member is collapsed by MultiObserver.
type Tee struct {
	members []RoundObserver
}

// MultiObserver combines observers into one. Nils are dropped; it
// returns nil for an empty set and the sole member for a singleton, so
// call sites can use it unconditionally without paying Tee dispatch for
// the common single-observer case.
func MultiObserver(obs ...RoundObserver) RoundObserver {
	kept := make([]RoundObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &Tee{members: kept}
}

// ObserveRunStart implements RoundObserver.
func (t *Tee) ObserveRunStart(method string, totalRounds, nClients, startRound int) {
	for _, o := range t.members {
		o.ObserveRunStart(method, totalRounds, nClients, startRound)
	}
}

// ObserveRoundStart implements RoundObserver.
func (t *Tee) ObserveRoundStart(round, invited int) {
	for _, o := range t.members {
		o.ObserveRoundStart(round, invited)
	}
}

// ObserveOutcome implements RoundObserver.
func (t *Tee) ObserveOutcome(client, done, lag int, failed bool) {
	for _, o := range t.members {
		o.ObserveOutcome(client, done, lag, failed)
	}
}

// ObserveRoundEnd implements RoundObserver.
func (t *Tee) ObserveRoundEnd(round, reported int, comm *CommStats) {
	for _, o := range t.members {
		o.ObserveRoundEnd(round, reported, comm)
	}
}

// ObserveEval implements RoundObserver.
func (t *Tee) ObserveEval(round int, meanAcc, meanLoss float64) {
	for _, o := range t.members {
		o.ObserveEval(round, meanAcc, meanLoss)
	}
}

// ObserveCheckpoint implements RoundObserver.
func (t *Tee) ObserveCheckpoint(round int) {
	for _, o := range t.members {
		o.ObserveCheckpoint(round)
	}
}

// ObserveDefense implements DefenseObserver.
func (t *Tee) ObserveDefense(round, masked, suspects int) {
	for _, o := range t.members {
		if d, ok := o.(DefenseObserver); ok {
			d.ObserveDefense(round, masked, suspects)
		}
	}
}

// ObservePhases implements PhaseObserver.
func (t *Tee) ObservePhases(round int, phases RoundPhases) {
	for _, o := range t.members {
		if p, ok := o.(PhaseObserver); ok {
			p.ObservePhases(round, phases)
		}
	}
}

// ObserveRunEnd implements RunEndObserver.
func (t *Tee) ObserveRunEnd(completed int, aborted bool) {
	for _, o := range t.members {
		if r, ok := o.(RunEndObserver); ok {
			r.ObserveRunEnd(completed, aborted)
		}
	}
}

var (
	_ RoundObserver   = (*Tee)(nil)
	_ DefenseObserver = (*Tee)(nil)
	_ PhaseObserver   = (*Tee)(nil)
	_ RunEndObserver  = (*Tee)(nil)
)
