// Package core implements FedClust, the paper's contribution: one-shot
// weight-driven client clustering for federated learning on non-IID data.
//
// The algorithm (paper §III, Fig. 2):
//
//  1. The server broadcasts initial global weights to all clients.
//  2. Each client trains locally for a few epochs and uploads only its
//     final-layer (classifier) weights — the "strategically selected
//     partial model weights" that implicitly encode the client's label
//     distribution (paper §II, Fig. 1).
//  3. The server builds the Euclidean proximity matrix over the uploaded
//     partial weights.
//  4. Agglomerative hierarchical clustering groups the clients — in one
//     communication round, with no predefined cluster count (the
//     dendrogram is cut at the silhouette-optimal level, preferring
//     coarser cuts when scores are comparable).
//  5. From then on each cluster trains independently with FedAvg.
//  6. Newcomers train locally once, upload final-layer weights, and are
//     assigned to the nearest cluster centroid in real time.
package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"fedclust/internal/cluster"
	"fedclust/internal/engine"
	"fedclust/internal/fl"
	"fedclust/internal/linalg"
	"fedclust/internal/nn"
)

// Config controls the FedClust trainer. The zero value selects the
// paper's defaults: final-layer weights, Euclidean distance, average
// linkage, automatic (silhouette-based) cluster-count selection.
type Config struct {
	// WarmupEpochs is how many local epochs precede the one-shot
	// clustering upload (default: the environment's local epochs).
	WarmupEpochs int
	// Metric is the proximity metric over partial weights (default
	// Euclidean, as in the paper).
	Metric linalg.Metric
	// Linkage for the HC step (default Average).
	Linkage cluster.Linkage
	// NumClusters, when > 0, fixes the dendrogram cut; otherwise the
	// silhouette-optimal count is chosen automatically (the paper's "no
	// predefined number of clusters" property), at most n/2 (and at
	// least 2) for n clients.
	NumClusters int
	// Selector picks the automatic cluster-count rule used when
	// NumClusters is 0 (default SelectSilhouette).
	Selector Selector
	// RawFeatures disables the default feature normalization. By default
	// the clustering feature is the final layer's *update* (weights
	// minus the shared initialization) scaled to unit norm: with a common
	// w₀ the update direction carries the label-distribution signal,
	// while its magnitude mostly reflects the client's local batch count
	// (dataset size), which would otherwise dominate the Euclidean
	// proximity matrix. RawFeatures=true uses the raw layer weights
	// exactly as uploaded (the ablation variant).
	RawFeatures bool
}

// Selector identifies an automatic cluster-count rule.
type Selector int

const (
	// SelectSilhouette cuts at the smallest k whose mean silhouette is
	// within cluster.SilhouetteTolerance of the best — the default.
	SelectSilhouette Selector = iota
	// SelectLargestGap cuts before the largest jump in merge distances.
	SelectLargestGap
)

// String returns the selector name.
func (s Selector) String() string {
	switch s {
	case SelectSilhouette:
		return "silhouette"
	case SelectLargestGap:
		return "largest-gap"
	default:
		return fmt.Sprintf("Selector(%d)", int(s))
	}
}

// FedClust is the fl.Trainer implementing the paper's method.
type FedClust struct {
	Cfg Config
	// State is populated by Run with the fitted server-side clustering
	// (features, centroids, cluster models) so newcomers can be
	// incorporated afterwards.
	State *ClusterState
}

// Name implements fl.Trainer.
func (*FedClust) Name() string { return "FedClust" }

// ClusterState is the server-side state after the one-shot clustering
// phase. It is everything needed to serve existing clients and to
// incorporate newcomers without re-clustering.
type ClusterState struct {
	// Labels maps each founding client to its cluster (0..K-1).
	Labels []int
	// K is the number of clusters.
	K int
	// Features holds each founding client's uploaded partial weight
	// vector (the clustering features).
	Features [][]float64
	// Centroids holds the mean feature vector per cluster — the
	// newcomer assignment rule compares against these.
	Centroids [][]float64
	// Models holds the current flat parameters of each cluster's model.
	Models [][]float64
	// Dendrogram is the full agglomeration history (for diagnostics and
	// re-cuts).
	Dendrogram *cluster.Dendrogram
	// Metric is the proximity metric the state was fitted with.
	Metric linalg.Metric
	// InitLayer is the final layer's parameters under the shared
	// initialization; newcomer features are extracted against it.
	InitLayer []float64
	// Cfg is the configuration the state was fitted with.
	Cfg Config
}

// NewcomerFeature extracts the clustering feature from a newcomer's
// locally trained model, consistent with how the founding features were
// built (same layer, same reference init, same normalization).
func (s *ClusterState) NewcomerFeature(model *nn.Sequential) []float64 {
	return FeatureOf(model, s.InitLayer, s.Cfg)
}

// Run implements fl.Trainer: one-shot clustering, then per-cluster FedAvg.
func (f *FedClust) Run(env *fl.Env) *fl.Result {
	d := engine.New(env, "FedClust")
	cfg := f.Cfg
	n := len(env.Clients)
	if cfg.WarmupEpochs == 0 {
		cfg.WarmupEpochs = env.Local.Epochs
	}
	maxK := max(n/2, 2)
	res := d.Res

	// A pending checkpoint for this method resumes past the one-shot
	// phase: the assignment and cluster models come back from the
	// checkpoint, and the warmup traffic plus formation bookkeeping (and
	// the round-0 comm snapshot) live in its restored Result. The
	// diagnostic ClusterState (features, centroids, dendrogram) is not
	// persisted — f.State stays nil on a resumed run (see DESIGN.md §9).
	if labels, k, models, ok := d.ResumeClustered(); ok {
		return d.RunClusteredFedAvg(labels, k, models)
	}

	// --- Steps ①–②: broadcast w₀; local warmup; upload partial weights.
	init := d.InitParams()
	features, initLayer, measDown, measUp := collectPartialWeights(env, cfg, init, d.Lanes())
	res.Comm.Download(n, d.NumParams) // step ① broadcast
	// Step ② uploads only the final layer, but it is still a full framed
	// message — and it always travels dense (sparsification applies to
	// full-parameter uplinks only), so it is charged under the dense
	// downlink codec, never the sparse uplink pricing. One exchange per
	// client, wherever it trains: a retried remote upload shows only in
	// the measured bytes.
	res.Comm.UploadDense(n, len(features[0]), res.Comm.Pricing.Down)
	res.Comm.Measured(measDown, measUp)

	// --- Steps ③–④: proximity matrix + hierarchical clustering.
	prox := linalg.PairwiseDistances(cfg.Metric, features)
	den := cluster.Agglomerate(prox, cfg.Linkage)
	var labels []int
	switch {
	case cfg.NumClusters > 0:
		labels = den.CutK(cfg.NumClusters)
	case cfg.Selector == SelectLargestGap:
		labels = den.CutLargestGap(1, maxK)
	default:
		// Parameter-free cut: the smallest cluster count whose mean
		// silhouette is within tolerance of the best (no predefined K, no
		// distance threshold — the paper's flexibility claim).
		labels = den.CutBestSilhouette(prox, 2, maxK, cluster.SilhouetteTolerance)
	}
	k := cluster.NumClusters(labels)

	st := &ClusterState{
		Labels:     labels,
		K:          k,
		Features:   features,
		Centroids:  centroids(features, labels, k),
		Dendrogram: den,
		Metric:     cfg.Metric,
		InitLayer:  initLayer,
		Cfg:        cfg,
	}
	res.Clusters = labels
	res.ClusterFormationRound = 0 // formed before round 1, in one shot
	res.ClusterFormationUpBytes = res.Comm.UpBytes
	res.Comm.EndRound(0)

	// --- Step ⑤: per-cluster FedAvg.
	st.Models = make([][]float64, k)
	for c := range st.Models {
		st.Models[c] = append([]float64(nil), init...)
	}
	f.State = st
	return d.RunClusteredFedAvg(labels, k, st.Models)
}

// InitLayerVector returns the final layer's parameters under the
// environment's shared initialization — the reference point for feature
// extraction. Every Config clusters on the final layer.
func InitLayerVector(env *fl.Env, _ Config) []float64 {
	return nn.FinalLayerVector(env.NewModel())
}

// FeatureOf turns a locally trained model into its clustering feature:
// the final layer's update from initLayer, unit-normalized (see
// Config.RawFeatures for the raw-weights variant).
func FeatureOf(model *nn.Sequential, initLayer []float64, cfg Config) []float64 {
	return FeatureFromVector(nn.FinalLayerVector(model), initLayer, cfg)
}

// FeatureFromVector is FeatureOf on an already-extracted layer vector —
// what a remote client puts on the wire (it uploads only the partial
// weights, never the whole model). With RawFeatures the result aliases
// vec.
func FeatureFromVector(vec, initLayer []float64, cfg Config) []float64 {
	if cfg.RawFeatures {
		return vec
	}
	if len(vec) != len(initLayer) {
		panic(fmt.Sprintf("core: feature length %d != init layer %d", len(vec), len(initLayer)))
	}
	delta := make([]float64, len(vec))
	var norm float64
	for i := range vec {
		delta[i] = vec[i] - initLayer[i]
		norm += float64(delta[i] * delta[i])
	}
	norm = math.Sqrt(norm)
	if norm > 0 {
		inv := 1 / norm
		for i := range delta {
			delta[i] *= inv
		}
	}
	return delta
}

// WarmupRound is the out-of-band round id keying the deterministic RNG
// stream of the one-shot warmup pass (far above any real round number,
// so warmup draws never collide with training rounds). Remote executors
// receive it as the request's round and derive the identical stream.
const WarmupRound = 1 << 20

// CollectPartialWeights performs the warmup phase: every client trains
// locally from the given initial weights for cfg.WarmupEpochs and the
// final layer's update is extracted as that client's clustering
// feature. Runs clients in parallel over the environment's warm
// per-worker lanes, borrowed for the call.
func CollectPartialWeights(env *fl.Env, cfg Config, init []float64) (features [][]float64) {
	engine.WithLanes(env, func(lanes []*fl.Lane) {
		features, _, _, _ = collectPartialWeights(env, cfg, init, lanes)
	})
	return features
}

// collectPartialWeights is CollectPartialWeights over caller-provided
// per-worker lanes (FedClust.Run passes its round engine's, so the
// warm-up and the rounds share one set of warm lanes). It also returns the final
// layer's parameters under init — the reference every feature is
// extracted against — and the wire bytes the environment's RemoteTrainer
// measured over the exchange, every retry included (zero without one).
// Local or remote, a warm-up visit is
// the same fl.Lane visit a training round runs, reporting only the
// final layer under the dense downlink codec both ways — so the
// paper's partial-upload property holds on the wire and the features are
// the same bits wherever a client trains. A remote warmup request is
// retried a few times (a deployment would simply re-ask for the tiny
// once-ever upload); a client whose every attempt fails is fatal — the
// one-shot clustering phase cannot proceed with missing features — and
// panics from the submitting goroutine once the parallel phase has
// drained. So does a client whose feature holds a NaN or an infinity.
func collectPartialWeights(env *fl.Env, cfg Config, init []float64, lanes []*fl.Lane) (features [][]float64, initLayer []float64, measDown, measUp int64) {
	n := len(env.Clients)
	features = make([][]float64, n)
	local := env.Local
	if cfg.WarmupEpochs > 0 {
		local.Epochs = cfg.WarmupEpochs
	}
	ref := lanes[0].Model
	nn.LoadParams(ref, init)
	initLayer = nn.FinalLayerVector(ref)
	errs := make([]error, n)
	var down, up atomic.Int64
	// Hostile scenarios reach the warmup too: label-noise attackers train
	// their features on poisoned data, wire-level attackers corrupt the
	// uploaded layer vector (a byzantine client lies in the clustering
	// round as well). This is where FedClust's isolation property comes
	// from — corrupted features cluster together, away from honest
	// cohorts. Drift never applies at warmup (round 0 predates DriftRound
	// by construction; Config.Check enforces DriftRound ≥ 0).
	sc := env.Participation.Scenario
	env.ParallelClientsWorker(n, func(w, i int) {
		vec := make([]float64, len(initLayer))
		if rt := env.Remote; rt != nil && rt.Owns(i) {
			req := fl.RemoteRequest{
				Client: i, Round: WarmupRound, Cluster: -1,
				Layer: fl.FinalLayer, Cfg: local, Start: init,
			}
			const attempts = 3 // ride out a transiently slow node
			for a := 0; a < attempts; a++ {
				var d, u int64
				d, u, errs[i] = rt.Train(&req, vec)
				down.Add(d)
				up.Add(u)
				if errs[i] == nil {
					break
				}
			}
			if errs[i] != nil {
				return
			}
		} else {
			train := env.Clients[i].Train
			if sc != nil {
				train = sc.TrainData(i, 0, train)
			}
			lanes[w].Visit(&fl.Visit{
				Client: i, Round: WarmupRound, Layer: fl.FinalLayer, Cfg: local,
				Start: init, Data: train,
				Down: env.Codec.Downlink(), Up: env.Codec,
			}, vec)
		}
		if sc != nil {
			sc.CorruptUpdate(i, WarmupRound, vec, initLayer)
		}
		features[i] = FeatureFromVector(vec, initLayer, cfg)
	})
	for i, err := range errs {
		if err != nil {
			panic(fmt.Sprintf("core: remote warmup upload for client %d failed: %v", i, err))
		}
	}
	// A diverged or corrupted upload (an Inf in the layer vector
	// normalizes to NaN) has no distance to anything: name the client here
	// rather than fail inside the clustering.
	for i, f := range features {
		for j, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				panic(fmt.Sprintf("core: warmup feature of client %d is non-finite (element %d is %v)", i, j, v))
			}
		}
	}
	return features, initLayer, down.Load(), up.Load()
}

// centroids computes per-cluster mean feature vectors.
func centroids(features [][]float64, labels []int, k int) [][]float64 {
	dim := len(features[0])
	out := make([][]float64, k)
	counts := make([]int, k)
	for c := range out {
		out[c] = make([]float64, dim)
	}
	for i, f := range features {
		c := labels[i]
		counts[c]++
		for j, v := range f {
			out[c][j] += v
		}
	}
	for c := range out {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		for j := range out[c] {
			out[c][j] *= inv
		}
	}
	return out
}

// AssignNewcomer returns the cluster whose centroid is nearest (under the
// fitted metric) to the newcomer's partial weight feature — the paper's
// step ⑥, executed in real time without re-clustering.
func (s *ClusterState) AssignNewcomer(feature []float64) int {
	if len(s.Centroids) == 0 {
		panic("core: AssignNewcomer on empty state")
	}
	if len(feature) != len(s.Centroids[0]) {
		panic(fmt.Sprintf("core: newcomer feature length %d, want %d", len(feature), len(s.Centroids[0])))
	}
	best, bestD := 0, linalg.VecDistance(s.Metric, feature, s.Centroids[0])
	for c := 1; c < len(s.Centroids); c++ {
		if d := linalg.VecDistance(s.Metric, feature, s.Centroids[c]); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
