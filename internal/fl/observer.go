package fl

// RoundObserver receives live progress from a running round driver — the
// feed behind the coordinator's control plane. Implementations must be
// cheap and non-blocking: calls happen on the driver goroutine between
// phases, never concurrently with each other. A nil Env.Observer costs
// nothing (every call site is nil-guarded), and observers must not mutate
// anything they are handed.
type RoundObserver interface {
	// ObserveRunStart fires once per Trainer.Run, before the first round.
	// startRound > 0 means the run resumed from a checkpoint.
	ObserveRunStart(method string, totalRounds, nClients, startRound int)
	// ObserveRoundStart fires once the round's scenario outcomes are
	// drawn, with the number of clients invited this round.
	ObserveRoundStart(round, invited int)
	// ObserveOutcome fires once per invited client after local passes
	// complete: done is the epoch count actually executed (0 = dropped
	// out), lag the staleness in rounds, failed whether the transport
	// layer lost the update. Under a synchronous method a straggler with
	// done > 0 reports its partial pass on time, so its lag is 0; only a
	// semi-async method's late deliveries carry lag > 0, with done the
	// full pass they deliver.
	// OutcomeCounts.Count classifies it.
	ObserveOutcome(client, done, lag int, failed bool)
	// ObserveRoundEnd fires after aggregation with the number of updates
	// that reached the server and the cumulative traffic ledger.
	ObserveRoundEnd(round, reported int, comm *CommStats)
	// ObserveEval fires when a round records evaluation metrics.
	ObserveEval(round int, meanAcc, meanLoss float64)
	// ObserveCheckpoint fires after a checkpoint is handed to the sink;
	// round is the completed-round count the checkpoint resumes at.
	ObserveCheckpoint(round int)
}

// OutcomeCounts tallies ObserveOutcome reports by class: OnTime a full
// pass by the deadline, Partial a straggler's shortened pass, Late an
// update lag > 0 rounds late, Offline nothing (dropout, or not invited to
// report), Failed an update the transport lost (timeout, disconnect).
type OutcomeCounts struct {
	OnTime  int `json:"on_time"`
	Partial int `json:"partial"`
	Late    int `json:"late"`
	Offline int `json:"offline"`
	Failed  int `json:"failed"`
}

// Count adds one ObserveOutcome report to its class. epochs is the
// configured full local pass (Env.Local.Epochs); 0 folds Partial into
// OnTime.
func (c *OutcomeCounts) Count(done, lag int, failed bool, epochs int) {
	switch {
	case failed:
		c.Failed++
	case lag < 0 || done <= 0:
		c.Offline++
	case lag > 0:
		c.Late++
	case epochs > 0 && done < epochs:
		c.Partial++
	default:
		c.OnTime++
	}
}

// DefenseObserver is an optional extension of RoundObserver for the
// robust-aggregation layer. The engine type-asserts Env.Observer to it
// after each round's aggregation, so observers that predate the hostile
// pack keep working unchanged.
type DefenseObserver interface {
	// ObserveDefense fires once per round (before ObserveRoundEnd) with
	// the round's defensive tallies: masked is the number of uplinks
	// dropped for non-finite values, suspects the number of inputs the
	// robust aggregator excluded across this round's combines.
	ObserveDefense(round, masked, suspects int)
}
