package experiments

import (
	"bytes"
	"fmt"

	"fedclust/internal/cluster"
	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/linalg"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// LayerProbe is one weight layer scored as a clustering feature: the
// output of the Fig. 1 probe and of the per-layer ablation (A1).
type LayerProbe struct {
	// Layer is the 1-based weight-layer index, Name the layer's own
	// description, Kind "FL" for the three trailing fully connected layers
	// of the paper's architectures and "CL" before them.
	Layer int
	Name  string
	Kind  string
	// Dist is the clients×clients Euclidean distance matrix over this
	// layer's weights.
	Dist *tensor.Tensor
	// BlockScore is inter/intra distance ratio against the true groups.
	BlockScore float64
	// ARI is the cluster-recovery score when HC clusters on this layer.
	ARI float64
}

// localPass is the package's one local training pass: the visit a client
// makes from the shared initial weights init, on env's compute path, with
// the result left in model.
func localPass(env *fl.Env, ts *fl.TrainScratch, model *nn.Sequential, init []float64, d *data.Dataset, r *rng.Rng) {
	ts.DType = env.DType
	nn.LoadParams(model, init)
	ts.LocalUpdate(model, d, env.Local, r)
}

// probeLayers trains every client once from the shared init, keeping the
// trained models so all probes come from the same run, and scores the
// given 1-based weight layers (nil = every layer) against truth, echoing
// each through cols.
func probeLayers(c Common, cols []Column[LayerProbe], env *fl.Env, truth []int, layers []int) []LayerProbe {
	ref := env.NewModel()
	init := nn.FlattenParams(ref)
	n := len(env.Clients)
	models := make([]*nn.Sequential, n)
	env.ParallelClientsWorker(n, func(_, i int) {
		models[i] = env.NewModel()
		localPass(env, &fl.TrainScratch{}, models[i], init, env.Clients[i].Train, env.ClientRng(i, 0))
	})
	wl := nn.WeightLayers(ref)
	if layers == nil {
		for l := range wl {
			layers = append(layers, l+1)
		}
	}
	var probes []LayerProbe
	for _, layer := range layers {
		if layer < 1 || layer > len(wl) {
			panic(fmt.Sprintf("experiments: probe layer %d out of range [1,%d]", layer, len(wl)))
		}
		feats := make([][]float64, n)
		for i, m := range models {
			feats[i] = nn.LayerParamVector(m, layer-1)
		}
		dist := linalg.PairwiseDistances(linalg.Euclidean, feats)
		kind := "CL"
		if layer > len(wl)-3 {
			kind = "FL"
		}
		probe := LayerProbe{
			Layer: layer, Name: ref.Layers[wl[layer-1]].Name(), Kind: kind, Dist: dist,
			BlockScore: BlockScore(dist, truth),
			ARI:        cluster.ARI(cluster.Agglomerate(dist, cluster.Average).CutK(2), truth),
		}
		progress(c, cols, probe)
		probes = append(probes, probe)
	}
	return probes
}

// Fig1Options configures the Fig. 1 layer-probe experiment: 10 clients in
// two label groups train a VGG-16-shaped network locally; pairwise
// distance matrices are computed from each probe layer's weights. The
// probe has its own CIFAR-style dataset (Dataset is not read); Quick
// narrows it to 3 clients per group, 40 samples per class and 2 epochs.
type Fig1Options struct {
	Common
	ClientsPerGroup int
	// ProbeLayers are 1-based weight-layer indices (paper: 1, 7, 14, 16;
	// VGG-16 has 13 conv + 3 FC weight layers).
	ProbeLayers   []int
	Epochs        int
	TrainPerClass int
}

// DefaultFig1Options mirrors the paper's probe (scaled to the simulator).
func DefaultFig1Options() Fig1Options {
	return Fig1Options{
		Common:          Common{Seed: 1},
		ClientsPerGroup: 5,
		ProbeLayers:     []int{1, 7, 14, 16},
		Epochs:          3,
		TrainPerClass:   80,
	}
}

// Check has nothing to reject: the probe reads no name.
func (o Fig1Options) Check() error { return nil }

// Fig1Result is the full probe outcome.
type Fig1Result struct {
	Truth  []int
	Layers []LayerProbe
}

// RunFig1 reproduces the paper's Fig. 1: the same 10-client, two-group
// CIFAR-style workload, a VGG-16-shaped model, and per-layer weight
// distance matrices. The expected shape: early conv layers show weak
// block structure; the final FC (classifier) layer shows a clean 2-block
// pattern and perfect cluster recovery.
func RunFig1(opts Fig1Options) *Fig1Result {
	if opts.Quick {
		opts.ClientsPerGroup, opts.TrainPerClass, opts.Epochs = 3, 40, 2
	}
	// CIFAR-style data at 32×32 (MiniVGG16's required input).
	train, test := data.Generate(data.SynthConfig{
		Name: "fig1-cifar", C: 3, H: 32, W: 32, Classes: 10,
		TrainPerClass: opts.TrainPerClass, TestPerClass: 10,
		ClassSep: 0.8, Noise: 1.0, SharedBG: 0.5, Smooth: 2, Seed: opts.Seed,
	})
	clients, truth := fl.BuildGroupClients(train, test, classHalves(10),
		[]int{opts.ClientsPerGroup, opts.ClientsPerGroup}, rng.New(opts.Seed))
	env := opts.newEnv(clients, func(fr *rng.Rng) *nn.Sequential {
		return nn.MiniVGG16(fr, 3, 10, 2) // VGG-16's channel base 64 scaled to 2
	}, 1, fl.LocalConfig{Epochs: opts.Epochs, BatchSize: 32, LR: 0.05})
	return &Fig1Result{Truth: truth, Layers: probeLayers(opts.Common, fig1Columns, env, truth, opts.ProbeLayers)}
}

var fig1Columns = []Column[LayerProbe]{
	{"Layer", func(l LayerProbe) string { return fmt.Sprint(l.Layer) }},
	{"Kind", func(l LayerProbe) string { return l.Kind }},
	{"BlockScore", func(l LayerProbe) string { return f2(l.BlockScore) }},
	{"ARI", func(l LayerProbe) string { return f2(l.ARI) }},
}

// Report prints the per-layer heatmaps and the block-structure summary.
func (f *Fig1Result) Report() Report {
	rep := Report{Checks: f.ShapeChecks()}
	for _, l := range f.Layers {
		var b bytes.Buffer
		RenderHeatmap(&b, fmt.Sprintf("Layer %d (%s) weight-distance matrix", l.Layer, l.Kind), l.Dist)
		fmt.Fprintf(&b, "  block score (inter/intra) = %.2f, HC cluster ARI = %.2f\n", l.BlockScore, l.ARI)
		rep.Sections = append(rep.Sections, Section{Text: b.String()})
	}
	rep.Sections = append(rep.Sections, Section{Table: tableOf(fig1Columns, f.Layers)})
	return rep
}

// ShapeChecks verifies Fig. 1's qualitative claim: the final layer's
// distance matrix separates the groups far better than the first layer's.
func (f *Fig1Result) ShapeChecks() []Check {
	if len(f.Layers) == 0 {
		return []Check{check(false, "no layers probed")}
	}
	first, last := f.Layers[0], f.Layers[len(f.Layers)-1]
	return []Check{
		check(last.BlockScore > first.BlockScore,
			"final layer block score (%.2f) > layer-1 (%.2f)", last.BlockScore, first.BlockScore),
		check(last.ARI >= 0.99, "final layer HC recovers groups (ARI %.2f)", last.ARI),
	}
}
