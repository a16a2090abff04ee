package fl

import "fedclust/internal/data"

// RoundScenario models system heterogeneity: per-client compute speed and
// availability. Implementations (internal/scenario) must be pure — Outcome
// is a deterministic function of (client, round) alone, never of call
// order or call count — because determinism across worker counts depends
// on repeatable answers. Outcome must also not allocate: it runs inside
// the engine's zero-allocation warm round.
type RoundScenario interface {
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
}

// HostileScenario extends RoundScenario with adversarial behavior: data
// poisoning / concept drift (TrainData) and byzantine uplink corruption
// (CorruptUpdate). The engine type-asserts Participation.Scenario to
// this interface, so benign scenario models are untouched. The same
// purity rules apply — both methods must be deterministic functions of
// their arguments (plus the scenario seed), never of call order, worker
// id, or wall clock; CorruptUpdate must not allocate.
type HostileScenario interface {
	RoundScenario
	// CorruptUpdate applies the client's byzantine uplink corruption to
	// out in place, given the round's broadcast starting point (start may
	// be nil when no reference vector exists, e.g. warmup feature
	// collection before a broadcast). Returns whether out was modified;
	// benign and data-poisoning clients return false.
	CorruptUpdate(client, round int, out, start []float64) bool
	// TrainData returns the dataset the client actually trains on this
	// round — base itself for benign stationary clients, a poisoned or
	// drifted view otherwise. Views must be stable: the same (client,
	// phase) always yields identical contents.
	TrainData(client, round int, base *data.Dataset) *data.Dataset
}

// Participation says who trains each round. Every client is invited every
// round; with no Scenario every invited client reports — the setting of the
// paper's experiments. Availability (dropouts, stragglers, churn) is
// modelled in one place, the Scenario, which is fingerprinted and
// checkpointed with the run.
type Participation struct {
	// Scenario, when non-nil, decides which invited clients report: those
	// it marks offline, or too slow to finish a single epoch by the
	// round's deadline, do not, and clients that finish only part of
	// their local pass report partial work. A scenario round may report
	// nobody — the engine skips aggregation for such wasted rounds.
	Scenario RoundScenario
}
