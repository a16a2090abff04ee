package methods

import (
	"testing"

	"fedclust/internal/fl"
	"fedclust/internal/scenario"
)

// dropouts takes each client offline with probability rate each round —
// the scenario's own dropout axis, with no stragglers.
func dropouts(env *fl.Env, rate float64) {
	env.Participation.Scenario = scenario.New(scenario.Config{DropoutRate: rate}, env.Seed, len(env.Clients))
}

func TestFedAvgSurvivesDropouts(t *testing.T) {
	env, _ := groupEnv(t, 3, 5, 22)
	dropouts(env, 0.5)
	res := FedAvg{}.Run(env)
	if res.FinalAcc < 0.4 {
		t.Fatalf("accuracy under 50%% dropout = %v", res.FinalAcc)
	}
	// Uplink must be strictly below the no-failure volume.
	nParams := env.NewModel().NumParams()
	visits := int64(env.Rounds) * int64(len(env.Clients))
	fullUp := visits * (fl.CommPricing{}).UploadBytesFor(nParams)
	fullDown := visits * (fl.CommPricing{}).DownloadBytesFor(nParams)
	if res.Comm.UpBytes >= fullUp {
		t.Fatalf("uplink %d not reduced by drops (full %d)", res.Comm.UpBytes, fullUp)
	}
	if res.Comm.DownBytes != fullDown {
		t.Fatalf("downlink %d should still cover all invited clients (%d)", res.Comm.DownBytes, fullDown)
	}
}

func TestFedAvgExtremeDropoutStillProgresses(t *testing.T) {
	env, _ := groupEnv(t, 3, 6, 23)
	dropouts(env, 0.89)
	res := FedAvg{}.Run(env)
	if res.FinalAcc <= 0.25 {
		t.Fatalf("accuracy under extreme dropout = %v (chance ≈ 0.25 on 4 classes)", res.FinalAcc)
	}
}
