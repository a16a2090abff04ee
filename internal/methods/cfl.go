package methods

import (
	"fmt"

	"fedclust/internal/cluster"
	"fedclust/internal/engine"
	"fedclust/internal/fl"
	"fedclust/internal/linalg"
	"fedclust/internal/tensor"
)

// CFL (Clustered Federated Learning, Sattler et al. 2020) starts with all
// clients in one FedAvg cluster and recursively bi-partitions a cluster
// when its aggregate update has nearly converged (‖mean Δ‖ small) while
// individual clients still disagree (max ‖Δᵢ‖ large). The split uses the
// sign structure of the pairwise cosine similarity of client updates.
//
// Because splits can only happen after a cluster's mean update stalls,
// stable clusters take many rounds to form — the communication-cost
// weakness the paper contrasts FedClust against.
type CFL struct {
	// Eps1 is the disagreement threshold: a cluster is split only when
	// ‖mean Δ‖ / max‖Δᵢ‖ < Eps1, i.e. individual clients still push hard
	// in directions that cancel in the average (default 0.12). Sattler et
	// al. split only near such stationary points, which is what makes
	// CFL's cluster formation slow — the property the paper critiques.
	Eps1 float64
	// Eps2 guards against splitting after genuine convergence: a split
	// also requires max‖Δᵢ‖ > Eps2 · (round-0 max update norm), so
	// clusters whose members have all stopped moving are left alone
	// (default 0.4).
	Eps2 float64
	// MinClusterSize blocks splits that would create clusters smaller
	// than this (default 2).
	MinClusterSize int
	// WarmupRounds disables splitting for the first rounds (default 5).
	WarmupRounds int
}

// Name implements fl.Trainer.
func (CFL) Name() string { return "CFL" }

func (c CFL) defaults() CFL {
	if c.Eps1 == 0 {
		c.Eps1 = 0.12
	}
	if c.Eps2 == 0 {
		c.Eps2 = 0.4
	}
	if c.MinClusterSize == 0 {
		c.MinClusterSize = 2
	}
	if c.WarmupRounds == 0 {
		c.WarmupRounds = 5
	}
	return c
}

// Run implements fl.Trainer.
func (c CFL) Run(env *fl.Env) *fl.Result {
	c = c.defaults()
	d := engine.New(env, "CFL")
	d.FullParticipation = true
	n := len(env.Clients)
	// assign[i] = cluster id of client i; models[id] = flat params. Ids
	// are dense: a split mints len(models) and never empties a cluster.
	assign := make([]int, n)
	models := [][]float64{d.InitParams()}
	starts := make([][]float64, n)
	// deltas[i] is client i's update this round, in one contiguous arena.
	deltaArena := make([]float64, n*d.NumParams)
	deltas := make([][]float64, n)
	for i := range deltas {
		deltas[i] = deltaArena[i*d.NumParams : (i+1)*d.NumParams]
	}
	lastChange := 0
	// refNorm is the max client-update norm of the first aggregated
	// round: the scale reference for the Eps2 convergence guard. Without
	// a scenario that is always round 0; under one, the first round where
	// anything arrived (a round with no reports skips Aggregate, and
	// anchoring on it would freeze refNorm at 0 and disable splitting
	// forever).
	refRound := -1
	var refNorm float64

	d.Hooks.Broadcast = func(round int) [][]float64 {
		for i := range starts {
			starts[i] = models[assign[i]]
		}
		return starts
	}
	d.Hooks.Local = func(ctx *engine.ClientCtx) {
		engine.DefaultLocal(ctx)
		fl.DeltaInto(deltas[ctx.Client], ctx.Out, ctx.Start)
	}
	d.Hooks.Aggregate = func(round int, reported []int) {
		if refRound < 0 {
			refRound = round
		}
		// Aggregate per cluster, then consider splitting each cluster. A
		// split only relabels members of an already-combined cluster to an
		// id minted past this loop's range, so combining everything first
		// folds exactly what combining cluster by cluster would.
		d.CombineClusters(assign, models)
		for id, k := 0, len(models); id < k; id++ {
			members := membersOf(assign, id)
			// Split statistics may only use updates that actually
			// arrived this round — deltas of scenario stragglers,
			// dropouts, and transport-failed remote visits are stale
			// (or never written). Reported covers all three (and is
			// uniformly true on a plain round, making this a no-op);
			// membersOf returns a fresh slice, so filtering in place
			// is safe.
			arrived := members[:0]
			for _, i := range members {
				if d.Reported(i) {
					arrived = append(arrived, i)
				}
			}
			members = arrived
			if len(members) == 0 {
				continue // every member missed the deadline this round
			}

			// Split criterion on this cluster's updates.
			meanDelta := meanOf(deltas, members)
			meanNorm := fl.L2Norm(meanDelta)
			maxNorm := 0.0
			for _, i := range members {
				if v := fl.L2Norm(deltas[i]); v > maxNorm {
					maxNorm = v
				}
			}
			if round == refRound && maxNorm > refNorm {
				refNorm = maxNorm
			}
			if round < c.WarmupRounds || len(members) < 2*c.MinClusterSize || refNorm == 0 || maxNorm == 0 {
				continue
			}
			if meanNorm/maxNorm < c.Eps1 && maxNorm > c.Eps2*refNorm {
				// Bi-partition members by cosine similarity of updates.
				sim := cosineSimilarity(deltas, members)
				split := cluster.SpectralBipartition(sim)
				sizeA, sizeB := 0, 0
				for _, s := range split {
					if s == 0 {
						sizeA++
					} else {
						sizeB++
					}
				}
				if sizeA < c.MinClusterSize || sizeB < c.MinClusterSize {
					continue
				}
				for j, i := range members {
					if split[j] == 1 {
						assign[i] = len(models)
					}
				}
				models = append(models, append([]float64(nil), models[id]...))
				lastChange = round + 1
			}
		}
	}
	d.Hooks.Served = func(i int) []float64 { return models[assign[i]] }
	// Checkpoint state: the cluster count (as the dense id list it has
	// always been stored as), the assignment, every cluster model in id
	// order, and the split machinery's reference scale. The deltas arena is
	// per-round scratch — fully rewritten before Aggregate reads it — so it
	// is not state.
	d.Hooks.State = func(s *fl.Sections) {
		ids := make([]int, len(models))
		for id := range ids {
			ids[id] = id
		}
		const secIDs = "cfl/ids"
		s.VarIntsIn(secIDs, &ids, 0, n)
		for id := range ids {
			if ids[id] != id {
				s.Fail(fmt.Errorf("cfl: checkpoint section %q holds %v, not the dense 0..K-1", secIDs, ids))
				break
			}
			if id == len(models) {
				models = append(models, make([]float64, d.NumParams))
			}
		}
		s.IntsIn("cfl/assign", assign, 0, len(models))
		s.Vecs("cfl/models", models)
		s.Scalars("cfl/meta", &lastChange, &refRound)
		s.Floats("cfl/ref", &refNorm)
	}

	res := d.Run()
	res.Clusters = canonicalLabels(assign)
	res.ClusterFormationRound = lastChange
	res.ClusterFormationUpBytes = clusterFormationUp(&res.Comm, lastChange)
	return res
}

func membersOf(assign []int, id int) []int {
	var out []int
	for i, a := range assign {
		if a == id {
			out = append(out, i)
		}
	}
	return out
}

func meanOf(vecs [][]float64, members []int) []float64 {
	out := make([]float64, len(vecs[members[0]]))
	for _, i := range members {
		for j, v := range vecs[i] {
			out[j] += v
		}
	}
	inv := 1 / float64(len(members))
	for j := range out {
		out[j] *= inv
	}
	return out
}

// cosineSimilarity builds the members×members cosine similarity matrix of
// their update vectors.
func cosineSimilarity(deltas [][]float64, members []int) *tensor.Tensor {
	m := len(members)
	sim := tensor.New(m, m)
	for a := 0; a < m; a++ {
		sim.Set(1, a, a)
		for b := a + 1; b < m; b++ {
			// cosine similarity = 1 - cosine distance
			d := linalg.VecDistance(linalg.Cosine, deltas[members[a]], deltas[members[b]])
			sim.Set(1-d, a, b)
			sim.Set(1-d, b, a)
		}
	}
	return sim
}

// canonicalLabels renumbers arbitrary ids to 0..k-1 by first appearance.
func canonicalLabels(assign []int) []int {
	out := make([]int, len(assign))
	next := 0
	seen := map[int]int{}
	for i, a := range assign {
		l, ok := seen[a]
		if !ok {
			l = next
			seen[a] = l
			next++
		}
		out[i] = l
	}
	return out
}
