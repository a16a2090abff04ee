package scenario_test

// Property-style suite for the scenario layer and how the engine reads
// it: outcome invariants hold for all drawn configurations, communication
// accounting matches the invited and reported set sizes exactly, and
// identical seeds give identical traces across two independently built
// environments.

import (
	"testing"
	"testing/quick"

	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/scenario"
)

// The model must satisfy the fl-side contract.
var _ fl.Scenario = (*scenario.Model)(nil)

// testEnv builds a small two-group environment. Each call constructs
// everything from scratch — the cross-env determinism tests rely on that.
func testEnv(seed uint64) *fl.Env {
	cfg := data.SynthConfig{
		Name: "scen4", C: 1, H: 8, W: 8, Classes: 4,
		TrainPerClass: 30, TestPerClass: 12,
		ClassSep: 0.85, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: seed,
	}
	train, test := data.Generate(cfg)
	clients, _ := fl.BuildGroupClients(train, test,
		[][]int{{0, 1}, {2, 3}}, []int{4, 4}, rng.New(seed))
	return &fl.Env{
		Clients: clients,
		Factory: func(fr *rng.Rng) *nn.Sequential { return nn.MLP(fr, 64, 12, 4) },
		Rounds:  4,
		Local:   fl.LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1},
		Seed:    seed,
		Workers: 2,
	}
}

// TestOutcomeInvariants: for arbitrary configurations, every (client,
// round) outcome respects the fl.Scenario contract — done in
// [0, epochs], done == epochs ⇔ on time, done == 0 ⇒ late or offline.
func TestOutcomeInvariants(t *testing.T) {
	f := func(seed uint64, fracRaw, dropRaw, deadRaw, jitRaw uint8) bool {
		cfg := scenario.Config{
			StragglerFrac: float64(fracRaw%101) / 100,
			DropoutRate:   float64(dropRaw%90) / 100,
			SlowdownMax:   1 + float64(deadRaw%8),
			Deadline:      0.25 + float64(deadRaw%8)/4,
			Jitter:        float64(jitRaw%4) / 10,
		}
		m := scenario.New(cfg, seed, 7)
		for c := 0; c < 7; c++ {
			for r := 0; r < 6; r++ {
				done, lag := m.Outcome(c, r, 3)
				if done < 0 || done > 3 {
					return false
				}
				if (done == 3) != (lag == 0) {
					return false
				}
				if done == 0 && lag == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestOutcomePureAndRepeatable: two models built from the same
// (Config, seed, n) agree on every outcome, profiles included, and
// repeated queries (any order) return the same answers.
func TestOutcomePureAndRepeatable(t *testing.T) {
	cfg := scenario.Config{StragglerFrac: 0.4, DropoutRate: 0.2, Jitter: 0.2}
	a := scenario.New(cfg, 99, 12)
	b := scenario.New(cfg, 99, 12)
	for i, p := range a.Profiles() {
		if b.Profiles()[i] != p {
			t.Fatalf("profiles diverge at client %d: %+v vs %+v", i, p, b.Profiles()[i])
		}
	}
	for r := 5; r >= 0; r-- { // query b in reverse order
		for c := 0; c < 12; c++ {
			ad, al := a.Outcome(c, r, 2)
			bd, bl := b.Outcome(11-c, 5-r, 2)
			ad2, al2 := a.Outcome(c, r, 2)
			if ad != ad2 || al != al2 {
				t.Fatalf("outcome of (%d,%d) changed on re-query", c, r)
			}
			cd, cl := b.Outcome(c, r, 2)
			if ad != cd || al != cl {
				t.Fatalf("models diverge at (%d,%d): (%d,%d) vs (%d,%d)", c, r, ad, al, cd, cl)
			}
			_, _ = bd, bl
		}
	}
}

// TestScenarioCommStatsMatchSampledSizes: a FedAvg run under a scenario
// accounts exactly one framed request per invited client downlink and
// one framed update per reported client uplink per round. Every client is
// invited; a client reports when its outcome has a completed epoch, so
// the scenario's outcomes alone reproduce the recorded per-round traffic.
func TestScenarioCommStatsMatchSampledSizes(t *testing.T) {
	env := testEnv(17)
	m := scenario.New(scenario.Config{
		StragglerFrac: 0.5, DropoutRate: 0.3, Deadline: 0.75, Jitter: 0.2,
	}, 17, len(env.Clients))
	env.Participation.Scenario = m
	res := methods.FedAvg{}.Run(env)
	nParams := env.NewModel().NumParams()
	if len(res.Comm.PerRound) != env.Rounds {
		t.Fatalf("recorded %d rounds, want %d", len(res.Comm.PerRound), env.Rounds)
	}
	sawLoss := false
	for r, rc := range res.Comm.PerRound {
		invited, reported := len(env.Clients), 0
		for c := 0; c < invited; c++ {
			if done, _ := m.Outcome(c, r, env.Local.Epochs); done > 0 {
				reported++
			}
		}
		sawLoss = sawLoss || reported < invited
		wantDown := int64(invited) * (fl.CommPricing{}).DownloadBytesFor(nParams)
		wantUp := int64(reported) * (fl.CommPricing{}).UploadBytesFor(nParams)
		if rc.DownBytes != wantDown || rc.UpBytes != wantUp {
			t.Fatalf("round %d traffic (up %d, down %d), want (up %d, down %d) for %d invited / %d reported",
				r, rc.UpBytes, rc.DownBytes, wantUp, wantDown, invited, reported)
		}
	}
	if !sawLoss {
		t.Fatal("no round lost a report: the scenario never bit")
	}
}

// TestScenarioRunsAreBitIdentical: the full trainer stack under a
// scenario is reproducible — two fresh environments with the same seed
// produce identical results, for both the synchronous and the
// staleness-aware aggregators.
func TestScenarioRunsAreBitIdentical(t *testing.T) {
	cfg := scenario.Config{StragglerFrac: 0.4, DropoutRate: 0.3, Deadline: 0.75, Jitter: 0.2}
	for _, tr := range []fl.Trainer{methods.FedAvg{}, methods.FedAvgStale{}, methods.FedBuff{}} {
		envA := testEnv(23)
		envB := testEnv(23)
		envA.Participation.Scenario = scenario.New(cfg, 23, len(envA.Clients))
		envB.Participation.Scenario = scenario.New(cfg, 23, len(envB.Clients))
		ra, rb := tr.Run(envA), tr.Run(envB)
		if ra.FinalAcc != rb.FinalAcc || ra.FinalLoss != rb.FinalLoss {
			t.Fatalf("%s: fresh envs diverge: (%v, %v) vs (%v, %v)",
				tr.Name(), ra.FinalAcc, ra.FinalLoss, rb.FinalAcc, rb.FinalLoss)
		}
		for i := range ra.PerClientAcc {
			if ra.PerClientAcc[i] != rb.PerClientAcc[i] {
				t.Fatalf("%s: per-client accuracy diverges at %d", tr.Name(), i)
			}
		}
		if ra.Comm.UpBytes != rb.Comm.UpBytes || ra.Comm.DownBytes != rb.Comm.DownBytes {
			t.Fatalf("%s: traffic diverges", tr.Name())
		}
	}
}

// TestNewRejectsInvalidConfig: New panics with Check's error on
// out-of-range settings.
func TestNewRejectsInvalidConfig(t *testing.T) {
	for _, cfg := range []scenario.Config{
		{StragglerFrac: -0.1},
		{StragglerFrac: 1.1},
		{DropoutRate: 1},
		{DropoutRate: -0.5},
		{SlowdownMax: 0.5},
		{Deadline: -1},
		{Jitter: -0.1},
	} {
		func(cfg scenario.Config) {
			defer func() {
				if _, ok := recover().(error); !ok {
					t.Fatalf("invalid config %+v did not panic with Check's error", cfg)
				}
			}()
			scenario.New(cfg, 1, 4)
		}(cfg)
	}
}

// TestDropoutRateDoesNotShiftJitterStream: sweeping the dropout rate
// must change only the dropout decisions — the jitter draws behind them
// stay put, so a rate→0 sweep column is comparable to the rate=0 one.
func TestDropoutRateDoesNotShiftJitterStream(t *testing.T) {
	cfg := scenario.Config{StragglerFrac: 0.5, SlowdownMax: 4, Deadline: 0.9, Jitter: 0.3}
	zero := scenario.New(cfg, 41, 10)
	cfg.DropoutRate = 1e-12 // never triggers, but enables the dropout branch
	eps := scenario.New(cfg, 41, 10)
	for c := 0; c < 10; c++ {
		for r := 0; r < 8; r++ {
			zd, zl := zero.Outcome(c, r, 2)
			ed, el := eps.Outcome(c, r, 2)
			if zd != ed || zl != el {
				t.Fatalf("(%d,%d): rate=0 gives (%d,%d), rate→0 gives (%d,%d): jitter stream shifted",
					c, r, zd, zl, ed, el)
			}
		}
	}
}
