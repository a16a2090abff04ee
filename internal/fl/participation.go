package fl

import "fedclust/internal/data"

// Scenario models everything a run deviates from the paper's setting
// by: per-client compute speed and availability (Outcome), data
// poisoning and concept drift (TrainData), byzantine uplink corruption
// (CorruptUpdate), and the identity a checkpoint records (Fingerprint).
// Implementations (internal/scenario) must be pure — every method is a
// deterministic function of its arguments plus the scenario's own seed,
// never of call order, call count, worker id or wall clock — because
// determinism across worker counts depends on repeatable answers.
// Outcome and CorruptUpdate must not allocate: they run inside the
// engine's zero-allocation warm round.
type Scenario interface {
	// Outcome reports how invited client c behaves in a round, given the
	// configured local epoch count. done is the number of local epochs
	// the client finishes before the round's virtual deadline (0 = its
	// update does not arrive on time). lag is the number of additional
	// rounds the client's full-epoch update needs before it would reach
	// the server: 0 means on time, k > 0 means it arrives k rounds late
	// (semi-async aggregators consume it then), and lag < 0 means the
	// client is offline this round and never reports.
	//
	// Invariants implementations must keep: done == epochs ⇔ lag == 0,
	// and done == 0 ⇒ lag != 0 (a client that finished nothing by the
	// deadline is either late or offline).
	Outcome(client, round, epochs int) (done, lag int)
	// TrainData returns the dataset the client actually trains on this
	// round — base itself for benign stationary clients, a poisoned or
	// drifted view otherwise. Views must be stable: the same (client,
	// phase) always yields identical contents.
	TrainData(client, round int, base *data.Dataset) *data.Dataset
	// CorruptUpdate applies the client's byzantine uplink corruption to
	// out in place, given the round's broadcast starting point (start may
	// be nil when no reference vector exists, e.g. warmup feature
	// collection before a broadcast). Returns whether out was modified;
	// benign and data-poisoning clients return false.
	CorruptUpdate(client, round int, out, start []float64) bool
	// Fingerprint identifies the scenario's whole trace; checkpoints
	// record it so a resume under a different trace is rejected.
	Fingerprint() uint64
}

// Participation says who trains each round. Every client is invited every
// round; with no Scenario every invited client reports its full local
// pass on time — the setting of the paper's experiments. Availability
// (dropouts, stragglers, churn) is modelled in one place, the Scenario,
// which is fingerprinted and checkpointed with the run.
type Participation struct {
	// Scenario, when non-nil, decides which invited clients report: those
	// it marks offline, or too slow to finish a single epoch by the
	// round's deadline, do not, and clients that finish only part of
	// their local pass report partial work. A scenario round may report
	// nobody — the engine skips aggregation for such wasted rounds.
	Scenario Scenario
}
