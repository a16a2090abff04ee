package engine_test

// Hostile-world suite at the engine seam: byzantine uplinks, churn
// windows, and concept drift must keep every determinism guarantee the
// benign scenario holds (worker counts, GOMAXPROCS, resume), the
// non-finite mask must stop a NaN-poisoned uplink before it reaches any
// aggregation, and the robust strategies must be exactly invisible at
// byzantine fraction 0.

import (
	"math"
	"runtime"
	"testing"

	"fedclust/internal/core"
	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/scenario"
)

// hostileModel draws the full adversarial stack over the golden
// population: a sign-flip cohort, churners, and a drift cohort.
func hostileModel(n int) *scenario.Model {
	return scenario.New(scenario.Config{
		ByzantineFrac: 0.35, Attack: scenario.AttackSignFlip,
		ChurnFrac: 0.3, ChurnHorizon: 6,
		DriftFrac: 0.3, DriftRound: 2,
	}, 34, n)
}

// hostileTrainers covers both scenario interpretations (synchronous
// partial work and semi-async late delivery) plus the warmup-clustering
// methods whose feature phase sees corrupted uplinks.
func hostileTrainers() []fl.Trainer {
	return []fl.Trainer{
		methods.FedAvg{},
		methods.IFCA{K: 2},
		&core.FedClust{},
		methods.FedAvgStale{},
		methods.FedBuff{},
	}
}

// TestHostileResultsBitIdenticalAcrossWorkerCounts extends the
// determinism matrix to the full hostile stack under a robust
// aggregator: which worker trains (and corrupts) an attacker's visit
// must not move a single bit.
func TestHostileResultsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, tr := range hostileTrainers() {
		var want string
		for _, workers := range []int{1, 2, 8} {
			env := goldenEnv(34, 3)
			env.EvalEvery = 1
			env.Workers = workers
			env.Participation.Scenario = hostileModel(len(env.Clients))
			env.Aggregator = &fl.TrimmedMean{Frac: 0.35}
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

// TestHostileResultsBitIdenticalAcrossGOMAXPROCS: same matrix, runtime
// parallelism axis, and a different defense (Krum exercises the distance
// matrix path).
func TestHostileResultsBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	for _, tr := range hostileTrainers() {
		var want string
		for _, procs := range []int{1, 2, 4} {
			old := runtime.GOMAXPROCS(procs)
			env := goldenEnv(34, 3)
			env.EvalEvery = 1
			env.Workers = 4
			env.Participation.Scenario = hostileModel(len(env.Clients))
			env.Aggregator = &fl.Krum{Frac: 0.2, M: 3}
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

// TestBenignHostileConfigReproducesGoldenFingerprints: satellite no-op
// pin — a scenario whose hostile knobs are all zero (with the hostile
// defaults explicitly spelled) must reproduce the PR 1 fingerprints bit
// for bit on the historical nil-aggregator path. A trimmed aggregator
// with nothing to trim is the mean of the same updates but computed in
// delta space (Combine aggregates {local − start} and re-adds the
// start), so it reproduces the golden run to rounding, not to the bit —
// that weaker, mathematical form of the byzantine-fraction-0 identity is
// pinned alongside.
func TestBenignHostileConfigReproducesGoldenFingerprints(t *testing.T) {
	benignScenario := func(n int) *scenario.Model {
		return scenario.New(scenario.Config{
			Deadline: 1, ByzantineFrac: 0, Attack: scenario.AttackSignFlip,
			AttackScale: 10, LabelNoiseRate: 0.5,
			ChurnFrac: 0, DriftFrac: 0, DriftShift: 1,
		}, 77, n)
	}
	for _, c := range goldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			env := goldenEnv(77, 6)
			env.Participation.Scenario = benignScenario(len(env.Clients))
			res := c.trainer().Run(env)
			if got := fingerprint(res); got != c.want {
				t.Errorf("benign hostile config perturbed the result\n got: %s\nwant: %s", got, c.want)
			}

			env = goldenEnv(77, 6)
			env.Participation.Scenario = benignScenario(len(env.Clients))
			env.Aggregator = &fl.TrimmedMean{Frac: 0}
			rob := c.trainer().Run(env)
			if rob.FinalAcc != res.FinalAcc {
				t.Errorf("no-trim aggregator moved accuracy: %v != %v", rob.FinalAcc, res.FinalAcc)
			}
			if diff := math.Abs(rob.FinalLoss - res.FinalLoss); diff > 1e-9*math.Abs(res.FinalLoss) {
				t.Errorf("no-trim aggregator moved loss beyond rounding: %v != %v", rob.FinalLoss, res.FinalLoss)
			}
			if rob.Comm.UpBytes != res.Comm.UpBytes || rob.Comm.DownBytes != res.Comm.DownBytes {
				t.Errorf("no-trim aggregator changed communication: %+v != %+v", rob.Comm, res.Comm)
			}
		})
	}
}

// poisonScenario is a scenario that uplinks NaN from one client —
// the byzantine payload no aggregator can average away, which the
// engine's non-finite mask must therefore stop up front.
type poisonScenario struct {
	client int
	value  float64
}

func (p *poisonScenario) Outcome(client, round, epochs int) (done, lag int) { return epochs, 0 }
func (p *poisonScenario) Fingerprint() uint64                               { return 0xbad }
func (p *poisonScenario) CorruptUpdate(client, round int, out, start []float64) bool {
	if client != p.client {
		return false
	}
	for j := range out {
		out[j] = p.value
	}
	return true
}
func (p *poisonScenario) TrainData(client, round int, base *data.Dataset) *data.Dataset {
	return base
}

// defenseLog records ObserveDefense calls (and satisfies RoundObserver
// with no-ops).
type defenseLog struct {
	masked, suspects int
	rounds           int
}

func (d *defenseLog) ObserveRunStart(string, int, int, int)   {}
func (d *defenseLog) ObserveRoundStart(int, int)              {}
func (d *defenseLog) ObserveOutcome(int, int, int, bool)      {}
func (d *defenseLog) ObserveRoundEnd(int, int, *fl.CommStats) {}
func (d *defenseLog) ObserveEval(int, float64, float64)       {}
func (d *defenseLog) ObserveCheckpoint(int)                   {}
func (d *defenseLog) ObserveDefense(round, masked, suspects int) {
	d.masked += masked
	d.suspects += suspects
	d.rounds++
}

// TestNonFiniteUplinkIsMaskedNotAggregated: a client streaming NaN (and
// ±Inf) must be counted as failed and excluded — the global model stays
// finite, the run completes, and the defense observer sees the mask.
func TestNonFiniteUplinkIsMaskedNotAggregated(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		env := goldenEnv(77, 3)
		env.EvalEvery = 1
		log := &defenseLog{}
		env.Observer = log
		env.Participation.Scenario = &poisonScenario{client: 2, value: v}
		res := methods.FedAvg{}.Run(env)
		if math.IsNaN(res.FinalAcc) || math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
			t.Fatalf("poison %v reached the global model: acc=%v loss=%v", v, res.FinalAcc, res.FinalLoss)
		}
		if log.masked != env.Rounds {
			t.Fatalf("poison %v: masked %d uplinks over %d rounds, want one per round",
				v, log.masked, env.Rounds)
		}
		if log.rounds != env.Rounds {
			t.Fatalf("ObserveDefense fired %d times, want %d", log.rounds, env.Rounds)
		}
	}
}

// TestDefenseSuspectCountsReachObserver: with a sign-flip cohort and a
// trimming defense, the per-round suspect tallies must reach the
// observer (2k per global combine).
func TestDefenseSuspectCountsReachObserver(t *testing.T) {
	env := goldenEnv(34, 3)
	log := &defenseLog{}
	env.Observer = log
	env.Participation.Scenario = scenario.New(scenario.Config{
		ByzantineFrac: 0.35, Attack: scenario.AttackSignFlip,
	}, 34, len(env.Clients))
	env.Aggregator = &fl.TrimmedMean{Frac: 0.2}
	methods.FedAvg{}.Run(env)
	// 6 clients, frac 0.2 → k=1 per side → 2 suspects per round.
	if want := 2 * env.Rounds; log.suspects != want {
		t.Fatalf("suspects=%d, want %d", log.suspects, want)
	}
	if log.masked != 0 {
		t.Fatalf("masked=%d for finite uplinks, want 0", log.masked)
	}
}

// TestHostileResumeEquivalence extends the resume matrix: a hostile run
// (byzantine + churn + drift, robust aggregator) restored from any
// checkpoint must finish bit-identically to the uninterrupted run.
func TestHostileResumeEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		trainer func() fl.Trainer
		agg     func() fl.Aggregator
	}{
		{"FedAvg+trimmed", func() fl.Trainer { return methods.FedAvg{} },
			func() fl.Aggregator { return &fl.TrimmedMean{Frac: 0.35} }},
		{"FedClust+krum", func() fl.Trainer { return &core.FedClust{} },
			func() fl.Aggregator { return &fl.Krum{Frac: 0.2, M: 3} }},
		{"FedBuff+median", func() fl.Trainer { return methods.FedBuff{} },
			func() fl.Aggregator { return &fl.Median{} }},
		{"FedAvgStale+trimmed", func() fl.Trainer { return methods.FedAvgStale{} },
			func() fl.Aggregator { return &fl.TrimmedMean{Frac: 0.35} }},
		{"CFL+median", func() fl.Trainer { return methods.CFL{WarmupRounds: 2, Eps1: 0.8, Eps2: 0.1} },
			func() fl.Aggregator { return &fl.Median{} }},
		{"IFCA+median", func() fl.Trainer { return methods.IFCA{K: 2} },
			func() fl.Aggregator { return &fl.Median{} }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mkEnv := func() *fl.Env {
				env := goldenEnv(34, 6)
				env.EvalEvery = 2
				env.Participation.Scenario = hostileModel(len(env.Clients))
				env.Aggregator = tc.agg()
				return env
			}
			want, snaps := captureRun(t, tc.trainer(), mkEnv())
			for _, round := range []int{1, 3, 6} {
				if got := resumeRun(t, tc.trainer(), mkEnv(), snaps[round]); got != want {
					t.Errorf("resume from round %d diverged\n got: %s\nwant: %s", round, got, want)
				}
			}
		})
	}
}

// TestResumeRejectsAggregatorChange: the defense is part of a run's
// identity — a checkpoint taken under one aggregator (or none) must
// refuse to resume under another, since the arithmetic it pins would
// silently change.
func TestResumeRejectsAggregatorChange(t *testing.T) {
	for _, tc := range []struct {
		name            string
		capture, resume fl.Aggregator
	}{
		{"trimmed->krum", &fl.TrimmedMean{Frac: 0.2}, &fl.Krum{Frac: 0.2}},
		{"trimmed-frac-change", &fl.TrimmedMean{Frac: 0.2}, &fl.TrimmedMean{Frac: 0.3}},
		{"nil->median", nil, &fl.Median{}},
		{"median->nil", &fl.Median{}, nil},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			env := goldenEnv(77, 6)
			env.Aggregator = tc.capture
			_, snaps := captureRun(t, methods.FedAvg{}, env)
			ck, err := fl.DecodeCheckpoint(snaps[3])
			if err != nil {
				t.Fatal(err)
			}
			env = goldenEnv(77, 6)
			env.Aggregator = tc.resume
			env.Ckpt = &fl.CheckpointPlan{Resume: ck}
			defer func() {
				if recover() == nil {
					t.Fatal("resuming under a different aggregator did not panic")
				}
			}()
			methods.FedAvg{}.Run(env)
		})
	}
}

// TestResumeSameAggregatorSucceeds: the identity check accepts the
// matching defense — including parameter equality through the name.
func TestResumeSameAggregatorSucceeds(t *testing.T) {
	env := goldenEnv(77, 6)
	env.Aggregator = &fl.Krum{Frac: 0.2, M: 3}
	want, snaps := captureRun(t, methods.FedAvg{}, env)
	env = goldenEnv(77, 6)
	env.Aggregator = &fl.Krum{Frac: 0.2, M: 3}
	if got := resumeRun(t, methods.FedAvg{}, env, snaps[3]); got != want {
		t.Fatalf("same-aggregator resume diverged\n got: %s\nwant: %s", got, want)
	}
}
