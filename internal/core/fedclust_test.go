package core

import (
	"fmt"
	"math"
	"testing"

	"fedclust/internal/cluster"
	"fedclust/internal/data"
	"fedclust/internal/engine"
	"fedclust/internal/fl"
	"fedclust/internal/linalg"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
)

// groupEnv builds the canonical two-group scenario (classes {0,1} vs
// {2,3}) used throughout the core tests.
func groupEnv(t testing.TB, clientsPerGroup, rounds int, seed uint64) (*fl.Env, []int) {
	t.Helper()
	cfg := data.SynthConfig{
		Name: "core4", C: 1, H: 8, W: 8, Classes: 4,
		TrainPerClass: 60, TestPerClass: 24,
		ClassSep: 0.85, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: seed,
	}
	train, test := data.Generate(cfg)
	r := rng.New(seed)
	clients, truth := fl.BuildGroupClients(train, test,
		[][]int{{0, 1}, {2, 3}}, []int{clientsPerGroup, clientsPerGroup}, r)
	env := &fl.Env{
		Clients: clients,
		Factory: func(fr *rng.Rng) *nn.Sequential { return nn.MLP(fr, 64, 24, 4) },
		Rounds:  rounds,
		Local:   fl.LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1},
		Seed:    seed,
	}
	return env, truth
}

func TestFedClustRecoversGroupsOneShot(t *testing.T) {
	env, truth := groupEnv(t, 3, 4, 1)
	f := &FedClust{}
	res := f.Run(env)
	if res.Method != "FedClust" {
		t.Fatalf("method = %q", res.Method)
	}
	if ari := cluster.ARI(res.Clusters, truth); ari < 0.99 {
		t.Fatalf("FedClust cluster ARI = %v (clusters %v)", ari, res.Clusters)
	}
	if res.ClusterFormationRound != 0 {
		t.Fatalf("clustering must be one-shot, got round %d", res.ClusterFormationRound)
	}
	if f.State == nil || f.State.K != 2 {
		t.Fatalf("state K = %v", f.State)
	}
}

func TestFedClustAutoDetectsClusterCount(t *testing.T) {
	// Three groups with disjoint classes; no NumClusters given.
	cfg := data.SynthConfig{
		Name: "core6", C: 1, H: 8, W: 8, Classes: 6,
		TrainPerClass: 50, TestPerClass: 20,
		ClassSep: 1.8, Noise: 0.6, SharedBG: 0.3, Smooth: 1, Seed: 2,
	}
	train, test := data.Generate(cfg)
	r := rng.New(2)
	clients, truth := fl.BuildGroupClients(train, test,
		[][]int{{0, 1}, {2, 3}, {4, 5}}, []int{3, 3, 3}, r)
	env := &fl.Env{
		Clients: clients,
		Factory: func(fr *rng.Rng) *nn.Sequential { return nn.MLP(fr, 64, 24, 6) },
		Rounds:  2,
		Local:   fl.LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1},
		Seed:    2,
	}
	f := &FedClust{}
	res := f.Run(env)
	if k := cluster.NumClusters(res.Clusters); k != 3 {
		t.Fatalf("auto cut found %d clusters, want 3 (%v)", k, res.Clusters)
	}
	if ari := cluster.ARI(res.Clusters, truth); ari < 0.99 {
		t.Fatalf("3-group ARI = %v", ari)
	}
}

func TestFedClustPartialUploadIsSmall(t *testing.T) {
	env, _ := groupEnv(t, 2, 2, 3)
	f := &FedClust{}
	res := f.Run(env)
	model := env.NewModel()
	finalLayerParams := len(nn.FinalLayerVector(model))
	n := len(env.Clients)
	wantRound0Up := int64(n) * (fl.CommPricing{}).UploadBytesFor(finalLayerParams)
	if res.ClusterFormationUpBytes != wantRound0Up {
		t.Fatalf("round-0 upload = %d, want %d (final layer only, framed)",
			res.ClusterFormationUpBytes, wantRound0Up)
	}
	full := int64(n) * (fl.CommPricing{}).UploadBytesFor(model.NumParams())
	if res.ClusterFormationUpBytes >= full {
		t.Fatal("partial upload not smaller than full model upload")
	}
}

func TestFedClustBeatsFedAvgOnGroupedData(t *testing.T) {
	// The headline Table-I comparison in miniature.
	envA, _ := groupEnv(t, 3, 5, 4)
	envB, _ := groupEnv(t, 3, 5, 4)
	fedclust := (&FedClust{}).Run(envA)

	// FedAvg baseline wired straight onto the round engine (importing
	// internal/methods would be a dependency cycle in tests): one global
	// model, evaluated through the Served hook.
	d := engine.New(envB, "FedAvg")
	global, starts := d.InitGlobal(), d.StartsBuf()
	d.Hooks.Broadcast = func(int) [][]float64 {
		for i := range starts {
			starts[i] = global
		}
		return starts
	}
	d.Hooks.Aggregate = func(_ int, reported []int) {
		vecs, ws := d.Gather(reported)
		d.Combine(global, vecs, ws)
	}
	d.Hooks.Served = func(int) []float64 { return global }
	avgAcc := d.Run().FinalAcc

	if fedclust.FinalAcc <= avgAcc {
		t.Fatalf("FedClust (%v) should beat FedAvg (%v) on grouped data",
			fedclust.FinalAcc, avgAcc)
	}
}

func TestFedClustFixedNumClusters(t *testing.T) {
	env, _ := groupEnv(t, 3, 2, 5)
	f := &FedClust{Cfg: Config{NumClusters: 3}}
	res := f.Run(env)
	if k := cluster.NumClusters(res.Clusters); k != 3 {
		t.Fatalf("fixed K=3 gave %d clusters", k)
	}
}

func TestCollectPartialWeightsShape(t *testing.T) {
	env, _ := groupEnv(t, 2, 1, 7)
	init := nn.FlattenParams(env.NewModel())
	features := CollectPartialWeights(env, Config{}, init)
	if len(features) != len(env.Clients) {
		t.Fatalf("features = %d", len(features))
	}
	want := len(nn.FinalLayerVector(env.NewModel()))
	for i, f := range features {
		if len(f) != want {
			t.Fatalf("client %d feature length %d, want %d", i, len(f), want)
		}
	}
}

func TestCollectPartialWeightsDeterministic(t *testing.T) {
	env, _ := groupEnv(t, 2, 1, 8)
	init := nn.FlattenParams(env.NewModel())
	a := CollectPartialWeights(env, Config{}, init)
	b := CollectPartialWeights(env, Config{}, init)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("partial weight collection not deterministic")
			}
		}
	}
}

func TestAssignNewcomerNearestCentroid(t *testing.T) {
	st := &ClusterState{
		Labels:    []int{0, 0, 1},
		K:         2,
		Features:  [][]float64{{0, 0}, {0.2, 0}, {10, 10}},
		Centroids: [][]float64{{0.1, 0}, {10, 10}},
		Metric:    linalg.Euclidean,
	}
	if got := st.AssignNewcomer([]float64{0.3, 0.1}); got != 0 {
		t.Fatalf("newcomer near cluster 0 assigned to %d", got)
	}
	if got := st.AssignNewcomer([]float64{9, 11}); got != 1 {
		t.Fatalf("newcomer near cluster 1 assigned to %d", got)
	}
}

func TestAssignNewcomerBadFeaturePanics(t *testing.T) {
	st := &ClusterState{Centroids: [][]float64{{0, 0}}, Metric: linalg.Euclidean}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong feature length did not panic")
		}
	}()
	st.AssignNewcomer([]float64{1})
}

func TestNewcomerEndToEnd(t *testing.T) {
	// Paper step ⑥ end to end: run FedClust on the two-group population,
	// then arrive a new client from group 1; it must be routed to the
	// cluster holding group 1's founding clients.
	env, truth := groupEnv(t, 3, 3, 9)
	f := &FedClust{}
	res := f.Run(env)

	// Build the newcomer: a fresh client drawn from group 1's classes.
	cfg := data.SynthConfig{
		Name: "core4", C: 1, H: 8, W: 8, Classes: 4,
		TrainPerClass: 60, TestPerClass: 24,
		ClassSep: 0.85, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: 99,
	}
	train, _ := data.Generate(cfg)
	newTrain := train.FilterClasses([]int{2, 3})
	newClient := &fl.Client{ID: 999, Train: newTrain}

	// Newcomer protocol: download w₀, train locally, upload the
	// final-layer feature.
	model := env.NewModel()
	new(fl.TrainScratch).LocalUpdate(model, newClient.Train, env.Local, rng.New(77))
	feature := f.State.NewcomerFeature(model)
	assigned := f.State.AssignNewcomer(feature)

	// Which cluster holds group-1 founders?
	var group1Cluster int
	for i, g := range truth {
		if g == 1 {
			group1Cluster = res.Clusters[i]
			break
		}
	}
	if assigned != group1Cluster {
		t.Fatalf("newcomer from group 1 assigned to cluster %d, want %d", assigned, group1Cluster)
	}
}

// TestFedClustEndToEndOnPreset runs the zero Config — the paper's
// defaults — on the FMNIST-shaped synthetic preset (ten classes in two
// label groups) and checks what a user reads off the run: it learns, it
// leaves a fitted state, and a model trained on a founding client's own
// data is routed back to that client's cluster.
func TestFedClustEndToEndOnPreset(t *testing.T) {
	cfg := data.SynthFMNIST(3)
	cfg.TrainPerClass, cfg.TestPerClass = 40, 16
	train, test := data.Generate(cfg)
	clients, _ := fl.BuildGroupClients(train, test,
		[][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}, []int{3, 3}, rng.New(3))
	env := &fl.Env{
		Clients: clients,
		Factory: func(r *rng.Rng) *nn.Sequential { return nn.MLP(r, train.Dim(), 24, 10) },
		Rounds:  3,
		Local:   fl.LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.05},
		Seed:    3,
	}
	f := &FedClust{}
	res := f.Run(env)
	if res.FinalAcc <= 0.2 {
		t.Fatalf("accuracy %v", res.FinalAcc)
	}
	if f.State == nil || f.State.K < 1 {
		t.Fatal("run left no fitted state")
	}
	m := env.NewModel()
	new(fl.TrainScratch).LocalUpdate(m, clients[0].Train, env.Local, rng.New(9))
	c := f.State.AssignNewcomer(f.State.NewcomerFeature(m))
	if want := f.State.Labels[0]; c != want {
		t.Fatalf("newcomer with client-0 data routed to %d, want %d", c, want)
	}
}

func TestProximityMatrixBlockStructure(t *testing.T) {
	// After fitting on grouped data, intra-group feature distances must
	// be smaller than inter-group ones (the Fig-1 block structure).
	env, truth := groupEnv(t, 3, 2, 10)
	f := &FedClust{}
	f.Run(env)
	prox := linalg.PairwiseDistances(f.State.Metric, f.State.Features)
	var intra, inter float64
	var nIntra, nInter int
	n := len(truth)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if truth[i] == truth[j] {
				intra += prox.At(i, j)
				nIntra++
			} else {
				inter += prox.At(i, j)
				nInter++
			}
		}
	}
	intra /= float64(nIntra)
	inter /= float64(nInter)
	if intra >= inter {
		t.Fatalf("no block structure: intra %v >= inter %v", intra, inter)
	}
}

func TestFedClustHistoryAndComm(t *testing.T) {
	env, _ := groupEnv(t, 2, 3, 11)
	env.EvalEvery = 1
	res := (&FedClust{}).Run(env)
	if len(res.History) != 3 {
		t.Fatalf("history = %d entries, want 3", len(res.History))
	}
	// Round-0 comm entry plus 3 training rounds.
	if len(res.Comm.PerRound) != 4 {
		t.Fatalf("per-round comm entries = %d, want 4", len(res.Comm.PerRound))
	}
	if res.Comm.PerRound[0].Round != 0 {
		t.Fatal("first comm entry should be the clustering round 0")
	}
}

func TestSelectorString(t *testing.T) {
	if SelectSilhouette.String() != "silhouette" || SelectLargestGap.String() != "largest-gap" {
		t.Fatal("selector names wrong")
	}
}

func TestFedClustLargestGapSelector(t *testing.T) {
	env, truth := groupEnv(t, 3, 2, 31)
	f := &FedClust{Cfg: Config{Selector: SelectLargestGap}}
	res := f.Run(env)
	// On cleanly separated groups the gap rule also recovers them.
	if ari := cluster.ARI(res.Clusters, truth); ari < 0.99 {
		t.Fatalf("largest-gap selector ARI = %v (clusters %v)", ari, res.Clusters)
	}
}

func TestFedClustRawFeaturesAblation(t *testing.T) {
	// The raw-weights variant must run end to end; on balanced group
	// populations (equal client sizes) it should still find 2 groups.
	env, truth := groupEnv(t, 3, 2, 32)
	f := &FedClust{Cfg: Config{RawFeatures: true, NumClusters: 2}}
	res := f.Run(env)
	if ari := cluster.ARI(res.Clusters, truth); ari < 0.5 {
		t.Fatalf("raw-feature variant ARI = %v on balanced groups", ari)
	}
}

// infUplink is a hostile scenario whose one byzantine client uploads an
// infinite weight at warmup; everything else is benign.
type infUplink struct{ client int }

func (infUplink) Outcome(client, round, epochs int) (done, lag int) { return epochs, 0 }

func (infUplink) TrainData(client, round int, base *data.Dataset) *data.Dataset { return base }

func (infUplink) Fingerprint() uint64 { return 0 }

func (s infUplink) CorruptUpdate(client, round int, out, start []float64) bool {
	if client != s.client {
		return false
	}
	out[0] = math.Inf(1)
	return true
}

func TestCollectPartialWeightsNamesNonFiniteClient(t *testing.T) {
	// Inf in the uploaded layer normalizes to NaN (Inf * 1/Inf); the
	// one-shot phase must stop with the client's id, not with an index
	// error from inside the clustering.
	env, _ := groupEnv(t, 2, 1, 9)
	env.Participation.Scenario = infUplink{client: 2}
	init := nn.FlattenParams(env.NewModel())
	for _, cfg := range []Config{{}, {RawFeatures: true}} {
		var msg string
		func() {
			defer func() { msg = fmt.Sprint(recover()) }()
			CollectPartialWeights(env, cfg, init)
		}()
		want := "core: warmup feature of client 2 is non-finite (element 0 is NaN)"
		if cfg.RawFeatures {
			want = "core: warmup feature of client 2 is non-finite (element 0 is +Inf)"
		}
		if msg != want {
			t.Fatalf("RawFeatures=%v: panic %q, want %q", cfg.RawFeatures, msg, want)
		}
	}
}
