package fl

import (
	"fmt"

	"fedclust/internal/data"
	"fedclust/internal/rng"
)

// RoundScenario models system heterogeneity layered over participation
// sampling: per-client compute speed and availability. Implementations
// (internal/scenario) must be pure — Outcome is a deterministic function
// of (client, round) alone, never of call order or call count — because
// the engine and the sampler both query it and determinism across worker
// counts depends on repeatable answers. Outcome must also not allocate:
// it runs inside the engine's zero-allocation warm round.
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

// Participation controls per-round client sampling and failure injection.
// The zero value means full participation with no failures — the setting
// of the paper's experiments. FedAvg-style trainers honor it; clustered
// trainers in this repo keep full participation (as the clustered-FL
// literature assumes) and document so.
type Participation struct {
	// Fraction of clients invited each round (McMahan et al.'s C).
	// 0 or 1 means everyone.
	Fraction float64
	// DropRate is the probability an invited client fails to report its
	// update (crash, network loss). The server aggregates whoever
	// reported.
	DropRate float64
	// MinClients lower-bounds the invited set (default 1).
	MinClients int
	// Scenario, when non-nil, layers a system-heterogeneity model over
	// the sampled sets: invited clients that the scenario marks offline
	// or too slow to finish a single epoch by the round's deadline are
	// removed from reported (on top of DropRate losses), and clients
	// that finish only part of their local pass report partial work.
	// Unlike the DropRate path, a scenario round may report nobody —
	// the engine skips aggregation for such wasted rounds.
	Scenario RoundScenario
}

// Validate panics on out-of-range settings.
func (p Participation) Validate() {
	if p.Fraction < 0 || p.Fraction > 1 {
		panic(fmt.Sprintf("fl: participation fraction %v out of [0,1]", p.Fraction))
	}
	if p.DropRate < 0 || p.DropRate >= 1 {
		panic(fmt.Sprintf("fl: drop rate %v out of [0,1)", p.DropRate))
	}
	if p.MinClients < 0 {
		panic(fmt.Sprintf("fl: negative MinClients %d", p.MinClients))
	}
}

// SampleRoundInto draws the round's invited and reporting client sets,
// deterministically from the environment seed, appending into
// caller-owned buffers (reused across rounds by the round engine so
// steady-state sampling allocates nothing once the buffers have grown;
// nil buffers allocate). The returned slices are backed by the buffers.
// Without a Scenario, reported is always non-empty (if every invited
// client would drop, one survivor is kept so the round is not wasted); a
// Scenario may empty it — a round where every device missed the deadline
// is genuinely wasted.
func (e *Env) SampleRoundInto(round int, invitedBuf, reportedBuf []int) (invited, reported []int) {
	p := e.Participation
	p.Validate()
	n := len(e.Clients)
	var r rng.Rng
	e.ClientRngInto(&r, -1, round) // server-side stream for this round
	// Invited set.
	invited = invitedBuf[:0]
	if p.Fraction == 0 || p.Fraction >= 1 {
		for i := 0; i < n; i++ {
			invited = append(invited, i)
		}
	} else {
		k := int(p.Fraction*float64(n) + 0.5)
		if k < p.MinClients {
			k = p.MinClients
		}
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		for i := 0; i < n; i++ {
			invited = append(invited, 0)
		}
		r.PermInto(invited)
		invited = invited[:k]
	}
	// Failure injection.
	reported = reportedBuf[:0]
	if p.DropRate == 0 {
		reported = append(reported, invited...)
	} else {
		for _, c := range invited {
			if r.Float64() >= p.DropRate {
				reported = append(reported, c)
			}
		}
		if len(reported) == 0 {
			reported = append(reported, invited[r.Intn(len(invited))])
		}
	}
	// Scenario layer: drop clients whose update misses the round's
	// virtual deadline entirely. The filter runs after (and independent
	// of) the DropRate draws, so enabling a scenario never disturbs the
	// crash-loss stream — and a scenario whose every outcome is on-time
	// leaves reported bit-identical to the scenario-free draw.
	if p.Scenario != nil {
		kept := reported[:0]
		for _, c := range reported {
			if done, _ := p.Scenario.Outcome(c, round, e.scenarioEpochs()); done > 0 {
				kept = append(kept, c)
			}
		}
		reported = kept
	}
	return invited, reported
}

// scenarioEpochs is the configured local epoch count handed to scenario
// outcome queries (floored at 1 so a zero-valued LocalConfig cannot make
// every client a dropout).
func (e *Env) scenarioEpochs() int {
	if e.Local.Epochs < 1 {
		return 1
	}
	return e.Local.Epochs
}
