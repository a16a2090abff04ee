package methods

import (
	"math"

	"fedclust/internal/engine"
	"fedclust/internal/fl"
	"fedclust/internal/nn"
)

// IFCA (Iterative Federated Clustering Algorithm, Ghosh et al. 2020)
// maintains K cluster models. Every round the server broadcasts all K
// models; each client picks the one with the lowest loss on its local
// training data, trains it, and the server aggregates per cluster.
//
// IFCA's limitations — the ones FedClust targets — surface directly here:
// K must be chosen in advance, and the downlink carries K full models per
// client per round.
type IFCA struct {
	// K is the predefined number of clusters.
	K int
}

// Name implements fl.Trainer.
func (f IFCA) Name() string { return "IFCA" }

// Run implements fl.Trainer.
func (f IFCA) Run(env *fl.Env) *fl.Result {
	if f.K < 1 {
		panic("methods: IFCA requires K >= 1")
	}
	d := engine.New(env, "IFCA")
	n := len(env.Clients)
	// Initialize the K cluster models: model 0 from the canonical shared
	// initialization (so K=1 degenerates exactly to FedAvg) and the rest
	// from distinct random draws, per standard IFCA practice.
	models := make([][]float64, f.K)
	models[0] = d.InitParams()
	for k := 1; k < f.K; k++ {
		m := env.Factory(envRng(env, 0x1fca, uint64(k)))
		models[k] = nn.FlattenParams(m)
	}
	choice := make([]int, n)
	prevChoice := make([]int, n)
	for i := range prevChoice {
		prevChoice[i] = -1
	}
	lastChange := 0

	// Broadcast all K models to every client.
	d.Hooks.DownlinkPerClient = func(int) int { return f.K * d.NumParams }
	d.Hooks.Local = func(ctx *engine.ClientCtx) {
		// The hostile view (if any): cluster selection and training both
		// read the data the client actually holds this round.
		train := ctx.TrainData()
		// Pick the cluster with lowest local training loss. (The K-model
		// selection pass stays exact — IFCA never routes remote, so there
		// is no wire image of the evaluation downloads to mirror.)
		best, bestLoss := 0, math.Inf(1)
		for k := 0; k < f.K; k++ {
			nn.LoadParams(ctx.Lane.Model, models[k])
			l, _ := ctx.Lane.Scratch.Evaluate(ctx.Lane.Model, train, 64)
			if l < bestLoss {
				best, bestLoss = k, l
			}
		}
		choice[ctx.Client] = best
		// IFCA sets no Broadcast hook: the visit's start — and with it the
		// reference point of compression and corruption — is the cluster
		// model the client picked.
		ctx.Start = models[best]
		ctx.VisitLocal()
		ctx.CorruptUplink()
	}
	d.Hooks.Aggregate = func(round int, reported []int) {
		// Track when the clustering last changed (cluster-formation cost).
		for i := range choice {
			if choice[i] != prevChoice[i] {
				lastChange = round + 1
				break
			}
		}
		copy(prevChoice, choice)
		d.CombineClusters(choice, models)
	}
	d.Hooks.Served = func(i int) []float64 { return models[choice[i]] }
	// Checkpoint state: the K cluster models, the current and previous
	// round's picks, and the formation tracker. choice itself feeds both
	// Served (this round's picks) and the next round's change detection,
	// so both slices are state.
	d.Hooks.State = func(s *fl.Sections) {
		s.Vecs("ifca/models", models)
		s.IntsIn("ifca/choice", choice, 0, f.K)
		s.IntsIn("ifca/prev", prevChoice, -1, f.K)
		s.Scalars("ifca/meta", &lastChange)
	}

	res := d.Run()
	res.Clusters = append([]int(nil), choice...)
	res.ClusterFormationRound = lastChange
	res.ClusterFormationUpBytes = clusterFormationUp(&res.Comm, lastChange)
	return res
}

// clusterFormationUp sums uplink bytes over the first `rounds` rounds.
func clusterFormationUp(c *fl.CommStats, rounds int) int64 {
	var up int64
	for _, r := range c.PerRound {
		if r.Round > rounds {
			break
		}
		up += r.UpBytes
	}
	return up
}
