package engine_test

// Golden no-op regression: the scenario layer must be invisible when it
// does nothing. Two levels are pinned against the pre-scenario
// (seed-equivalent) fingerprints in goldenCases:
//
//  1. Scenario == nil (the `-scenario` off path) — covered by
//     TestEngineReproducesSeedResults, which runs the exact goldenCases.
//  2. A benign scenario attached (zero straggler cohort, zero dropout,
//     deadline 1): every client finishes on time, so the filtered
//     reported set, the per-visit epoch counts, and the aggregation
//     weights must all collapse to the scenario-free values — per-method
//     accuracy trajectories, traffic, and cluster bookkeeping included,
//     bit for bit.
//
// Together they prove enabling the machinery without hostile settings is
// a no-op, i.e. every scenario branch in the engine is exactly neutral
// at the benign point.

import (
	"testing"

	"fedclust/internal/scenario"
)

func TestBenignScenarioReproducesGoldenFingerprints(t *testing.T) {
	for _, c := range goldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			env := goldenEnv(77, 6)
			env.Participation.Scenario = scenario.New(scenario.Config{
				StragglerFrac: 0, DropoutRate: 0, Deadline: 1,
			}, 77, len(env.Clients))
			res := c.trainer().Run(env)
			if got := fingerprint(res); got != c.want {
				t.Errorf("benign scenario perturbed the result\n got: %s\nwant: %s", got, c.want)
			}
		})
	}
}
