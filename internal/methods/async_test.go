package methods

import (
	"math"
	"testing"

	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/scenario"
)

// TestFedAvgStaleMatchesFedAvgWhenIdeal: with every client on time and a
// full cache refresh each round, the stale-decay step is algebraically
// FedAvg's (broadcast point plus the weighted mean delta equals the
// weighted mean of client parameters). Floating-point association
// differs, so the accuracies must agree to tight tolerance rather than
// bit-exactly.
func TestFedAvgStaleMatchesFedAvgWhenIdeal(t *testing.T) {
	env, _ := groupEnv(t, 3, 4, 31)
	avg := FedAvg{}.Run(env)
	stale := FedAvgStale{}.Run(env)
	if math.Abs(avg.FinalAcc-stale.FinalAcc) > 1e-9 {
		t.Fatalf("ideal-world FedAvgStale diverged from FedAvg: %v vs %v",
			stale.FinalAcc, avg.FinalAcc)
	}
	if math.Abs(avg.FinalLoss-stale.FinalLoss) > 1e-6 {
		t.Fatalf("ideal-world loss diverged: %v vs %v", stale.FinalLoss, avg.FinalLoss)
	}
}

// TestFedAvgStaleSurvivesScenarioDropout: under heavy scenario dropout
// the cached-update server must keep learning.
func TestFedAvgStaleSurvivesScenarioDropout(t *testing.T) {
	env, _ := groupEnv(t, 3, 6, 32)
	env.Participation.Scenario = scenario.New(scenario.Config{
		StragglerFrac: 0.3, SlowdownMax: 4, DropoutRate: 0.5,
	}, 32, len(env.Clients))
	res := FedAvgStale{}.Run(env)
	checkBasicResult(t, res, env)
	if res.FinalAcc < 0.4 {
		t.Fatalf("accuracy under 50%% scenario dropout = %v", res.FinalAcc)
	}
	// Uplink shrinks with the reporting set.
	full := int64(env.Rounds) * int64(len(env.Clients)) *
		(fl.CommPricing{}).UploadBytesFor(env.NewModel().NumParams())
	if res.Comm.UpBytes >= full {
		t.Fatalf("uplink %d not reduced by scenario dropouts (full %d)", res.Comm.UpBytes, full)
	}
}

// TestFedBuffLearnsWhenEveryClientIsLate: with a deadline shorter than
// any client's full pass, the synchronous reported set is empty in async
// mode every round — progress can only come from late deliveries folding
// through the buffer. The run must still clear chance by a wide margin,
// proving the pending/arrival machinery works.
func TestFedBuffLearnsWhenEveryClientIsLate(t *testing.T) {
	env, _ := groupEnv(t, 3, 8, 33)
	env.Participation.Scenario = scenario.New(scenario.Config{
		StragglerFrac: 0, Deadline: 0.5, // nominal pass takes 1 > 0.5: all late
	}, 33, len(env.Clients))
	res := FedBuff{}.Run(env)
	checkBasicResult(t, res, env)
	if res.FinalAcc < 0.5 {
		t.Fatalf("FedBuff with all-late delivery reached only %v", res.FinalAcc)
	}
	// Nobody reports on time — all uplink bytes come from the late-
	// arrival accounting, and can never exceed one update per client per
	// round.
	full := int64(env.Rounds) * int64(len(env.Clients)) *
		(fl.CommPricing{}).UploadBytesFor(env.NewModel().NumParams())
	if res.Comm.UpBytes <= 0 || res.Comm.UpBytes >= full {
		t.Fatalf("late-arrival uplink %d outside (0, %d)", res.Comm.UpBytes, full)
	}
}

// TestFedBuffIdealApproximatesFedAvg: without a scenario FedBuff is a
// buffered delta-form FedAvg (Goal-sized server steps whose total per
// round matches one mean update); it should land near FedAvg, not match
// it bit-for-bit.
func TestFedBuffIdealApproximatesFedAvg(t *testing.T) {
	env, _ := groupEnv(t, 3, 6, 34)
	avg := FedAvg{}.Run(env)
	buff := FedBuff{}.Run(env)
	checkBasicResult(t, buff, env)
	if math.Abs(avg.FinalAcc-buff.FinalAcc) > 0.15 {
		t.Fatalf("ideal-world FedBuff too far from FedAvg: %v vs %v",
			buff.FinalAcc, avg.FinalAcc)
	}
}

// TestStragglersReportPartialWork: with a straggler cohort and no
// dropouts, stragglers report fewer completed epochs; the partial-work
// weighting keeps the run healthy, traffic stays at full participation,
// and the run is reproducible.
func TestStragglersReportPartialWork(t *testing.T) {
	env, _ := groupEnv(t, 3, 6, 35)
	m := scenario.New(scenario.Config{
		StragglerFrac: 0.5, SlowdownMax: 2, // pass ≤ 2: every straggler finishes ≥ 1 of 2 epochs
	}, 35, len(env.Clients))
	env.Participation.Scenario = m
	if m.Stragglers() == 0 {
		t.Skip("seed drew no stragglers")
	}
	// All stragglers complete at least one epoch under SlowdownMax 2, so
	// everyone reports and the uplink equals full participation.
	res := FedAvg{}.Run(env)
	checkBasicResult(t, res, env)
	full := int64(env.Rounds) * int64(len(env.Clients)) *
		(fl.CommPricing{}).UploadBytesFor(env.NewModel().NumParams())
	if res.Comm.UpBytes != full {
		t.Fatalf("uplink %d, want full %d: a straggler failed to report", res.Comm.UpBytes, full)
	}
	if res.FinalAcc < 0.4 {
		t.Fatalf("accuracy with partial-work stragglers = %v", res.FinalAcc)
	}
}

// onceScenario reports every client on time in round 0 and nobody ever
// after — the worst case for a synchronous server.
type onceScenario struct{}

func (onceScenario) Outcome(client, round, epochs int) (done, lag int) {
	if round == 0 {
		return epochs, 0
	}
	return 0, 1
}

func (onceScenario) TrainData(client, round int, base *data.Dataset) *data.Dataset { return base }

func (onceScenario) CorruptUpdate(client, round int, out, start []float64) bool { return false }

func (onceScenario) Fingerprint() uint64 { return 0 }

// TestFedAvgStaleStepsOnEmptyRounds: rounds where nobody reports must
// still move the global — the cached round-0 updates keep stepping it
// (AggregateEmptyRounds). A frozen server would evaluate identically at
// every post-0 round.
func TestFedAvgStaleStepsOnEmptyRounds(t *testing.T) {
	env, _ := groupEnv(t, 3, 4, 36)
	env.EvalEvery = 1
	env.Participation.Scenario = onceScenario{}
	res := FedAvgStale{}.Run(env)
	if len(res.History) != env.Rounds {
		t.Fatalf("recorded %d evals, want %d", len(res.History), env.Rounds)
	}
	moved := false
	for i := 2; i < len(res.History); i++ {
		if res.History[i].MeanLoss != res.History[i-1].MeanLoss {
			moved = true
		}
	}
	if !moved {
		t.Fatal("global frozen across report-free rounds: cached updates not applied")
	}
	// Uplink reflects the single reporting round.
	nParams := env.NewModel().NumParams()
	if want := int64(len(env.Clients)) * (fl.CommPricing{}).UploadBytesFor(nParams); res.Comm.UpBytes != want {
		t.Fatalf("uplink %d, want one full reporting round %d", res.Comm.UpBytes, want)
	}
}

// TestFedBuffHonorsDropRate: the scenario's dropout rate must affect the
// buffered aggregation — an offline client's update never reaches the
// server, so runs at different rates must produce different models (a
// regression guard: an earlier draft folded every invited client's delta
// regardless of the reported set).
func TestFedBuffHonorsDropRate(t *testing.T) {
	run := func(drop float64) *fl.Result {
		env, _ := groupEnv(t, 3, 5, 37)
		dropouts(env, drop)
		return FedBuff{}.Run(env)
	}
	clean := run(0)
	lossy := run(0.6)
	if clean.FinalAcc == lossy.FinalAcc && clean.FinalLoss == lossy.FinalLoss {
		t.Fatal("drop rate had no effect on FedBuff aggregation")
	}
	if lossy.Comm.UpBytes >= clean.Comm.UpBytes {
		t.Fatalf("lossy uplink %d not below clean %d", lossy.Comm.UpBytes, clean.Comm.UpBytes)
	}
	if lossy.FinalAcc < 0.4 {
		t.Fatalf("FedBuff under 60%% crash loss reached only %v", lossy.FinalAcc)
	}
}
