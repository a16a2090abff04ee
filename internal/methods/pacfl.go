package methods

import (
	"fedclust/internal/cluster"
	"fedclust/internal/engine"
	"fedclust/internal/fl"
	"fedclust/internal/linalg"
	"fedclust/internal/tensor"
)

// PACFL (Vahidian et al. 2022) clusters clients before training by
// comparing the principal subspaces of their raw data: each client sends
// the top-P left singular vectors of its (features × samples) data matrix;
// the server computes pairwise principal angles between those subspaces,
// runs agglomerative hierarchical clustering on the angle matrix, and then
// trains one FedAvg model per cluster.
//
// Simplification vs. the original (recorded in DESIGN.md): PACFL sends one
// subspace per local class; we send one subspace per client over its whole
// local dataset. The mechanism — subspace sketch, principal angles, HC —
// is identical, and under label-skew partitions the whole-data subspace is
// dominated by the client's class mixture, which is exactly the signal
// being clustered.
type PACFL struct {
	// P is the number of singular vectors per client sketch (default 3).
	P int
	// Linkage for the HC step (default Average).
	Linkage cluster.Linkage
	// NumClusters, when > 0, fixes the HC cut; otherwise the largest-gap
	// heuristic picks it, with at most max(n/2, 2) clusters.
	NumClusters int
}

// pacflSketchSamples caps how many examples enter each client's SVD,
// which keeps the one-shot preprocessing cheap.
const pacflSketchSamples = 100

// Name implements fl.Trainer.
func (PACFL) Name() string { return "PACFL" }

func (p PACFL) defaults() PACFL {
	if p.P == 0 {
		p.P = 3
	}
	return p
}

// Run implements fl.Trainer.
func (p PACFL) Run(env *fl.Env) *fl.Result {
	d := engine.New(env, "PACFL")
	n := len(env.Clients)
	p = p.defaults()
	res := d.Res

	// A pending checkpoint for this method already paid for the one-shot
	// clustering: the assignment and per-cluster models come back from the
	// checkpoint, and the sketch-upload traffic plus formation bookkeeping
	// live in its restored Result. Skip straight to the round schedule.
	if labels, k, models, ok := d.ResumeClustered(); ok {
		return d.RunClusteredFedAvg(labels, k, models)
	}

	// --- One-shot clustering phase (before any training round). ---
	bases := make([]*tensor.Tensor, n)
	env.ParallelClients(n, func(i int) {
		bases[i] = clientSubspace(env, i, p.P, pacflSketchSamples)
	})
	// Uplink: each client sends P basis vectors of length dim — a dense
	// one-shot sketch, framed like any other message but never
	// sparsified, so it prices under the run's dense (downlink) codec.
	dim := env.Clients[0].Train.Dim()
	res.Comm.UploadDense(n, p.P*dim, res.Comm.Pricing.Down)

	prox := linalg.PairwiseFromFunc(n, func(i, j int) float64 {
		return linalg.SubspaceDistance(bases[i], bases[j])
	})
	den := cluster.Agglomerate(prox, p.Linkage)
	var labels []int
	if p.NumClusters > 0 {
		labels = den.CutK(p.NumClusters)
	} else {
		labels = den.CutLargestGap(1, max(n/2, 2))
	}
	k := cluster.NumClusters(labels)
	res.Clusters = labels
	res.ClusterFormationRound = 0 // formed before round 1
	res.ClusterFormationUpBytes = res.Comm.UpBytes

	// --- Per-cluster FedAvg. ---
	models := make([][]float64, k)
	for c := range models {
		models[c] = d.InitParams()
	}
	return d.RunClusteredFedAvg(labels, k, models)
}

// clientSubspace computes an orthonormal basis of the top-P left singular
// vectors of client i's (dim × samples) data matrix, subsampled to at most
// maxSamples columns.
func clientSubspace(env *fl.Env, i, p, maxSamples int) *tensor.Tensor {
	d := env.Clients[i].Train
	m := d.Len()
	if m > maxSamples {
		m = maxSamples
	}
	if p > m {
		p = m
	}
	r := envRng(env, 0x9acf1, uint64(i))
	pick := r.Perm(d.Len())[:m]
	dim := d.Dim()
	a := tensor.New(dim, m)
	for col, row := range pick {
		src := d.X.Row(row)
		for j := 0; j < dim; j++ {
			a.Set(src[j], j, col)
		}
	}
	svd := linalg.ComputeSVD(a)
	return svd.TruncateU(p)
}
