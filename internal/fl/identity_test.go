package fl

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"

	"fedclust/internal/data"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/scenario"
	"fedclust/internal/wire"
)

// recipe is what identityEnv builds an environment from: a synthetic data
// recipe, two label groups of perGroup clients, and an MLP of one hidden
// layer.
type recipe struct {
	synth    data.SynthConfig
	perGroup int
	hidden   int
}

func baseRecipe() recipe {
	return recipe{
		synth: data.SynthConfig{
			Name: "ident4", C: 1, H: 4, W: 4, Classes: 4,
			TrainPerClass: 12, TestPerClass: 6,
			ClassSep: 0.85, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: 7,
		},
		perGroup: 3,
		hidden:   20,
	}
}

func (r recipe) env() *Env {
	train, test := data.Generate(r.synth)
	clients, _ := BuildGroupClients(train, test, [][]int{{0, 1}, {2, 3}}, []int{r.perGroup, r.perGroup}, rng.New(7))
	return &Env{
		Clients:   clients,
		Factory:   func(fr *rng.Rng) *nn.Sequential { return nn.MLP(fr, 16, r.hidden, 4) },
		Rounds:    6,
		Local:     LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9},
		Seed:      7,
		EvalEvery: 2,
	}
}

// TestCheckpointMatchesIdentity: every field that decides a run's bits is
// in its identity. Each row changes one field of the environment a
// checkpoint was written under, and Matches must refuse the resume with
// an error naming the row's component. parentAccepted marks the changes
// the field-by-field checks this identity replaced let through: each of
// those resumed and trained a different model. The fields left out of the
// identity on purpose (Workers, Ckpt) must not refuse it.
func TestCheckpointMatchesIdentity(t *testing.T) {
	ckpt := &Checkpoint{Method: "FedAvg", ID: baseRecipe().env().Identity(), Round: 3, Rounds: 6}
	for _, tc := range []struct {
		field, component string // component "" means Matches must accept
		parentAccepted   bool
		recipe           func(r *recipe)
		env              func(e *Env)
	}{
		{"lr", "local config", true, nil, func(e *Env) { e.Local.LR = 0.05 }},
		{"epochs", "local config", true, nil, func(e *Env) { e.Local.Epochs = 3 }},
		{"batch size", "local config", true, nil, func(e *Env) { e.Local.BatchSize = 8 }},
		{"momentum", "local config", true, nil, func(e *Env) { e.Local.Momentum = 0.5 }},
		{"weight decay", "local config", true, nil, func(e *Env) { e.Local.WeightDecay = 1e-4 }},
		{"prox mu", "local config", true, nil, func(e *Env) { e.Local.ProxMu = 0.1 }},
		{"dtype", "dtype", true, nil, func(e *Env) { e.DType = Float32 }},
		{"dense codec", "codec", true, nil, func(e *Env) { e.Codec = wire.Quant8 }},
		{"sparse codec", "codec", false, nil, func(e *Env) { e.Codec = wire.TopK }},
		{"topk frac", "codec", true, nil, func(e *Env) { e.TopKFrac = 0.05 }},
		{"eval every", "schedule", true, nil, func(e *Env) { e.EvalEvery = 3 }},
		{"eval batch", "schedule", true, nil, func(e *Env) { e.EvalBatch = 32 }},
		{"data recipe", "data", true, func(r *recipe) { r.synth.Noise = 0.9 }, nil},
		{"hidden width", "architecture", false, func(r *recipe) { r.hidden = 24 }, nil},
		{"aggregator", "aggregator", false, nil, func(e *Env) { e.Aggregator = &Median{} }},
		{"aggregator frac", "aggregator", false, nil, func(e *Env) { e.Aggregator = &TrimmedMean{Frac: 0.2} }},
		{"scenario", "scenario", false, nil, func(e *Env) {
			e.Participation.Scenario = scenario.New(scenario.Config{DropoutRate: 0.2}, 7, len(e.Clients))
		}},
		{"seed", "schedule", false, nil, func(e *Env) { e.Seed = 8 }},
		{"rounds", "schedule", false, nil, func(e *Env) { e.Rounds = 7 }},
		{"population", "schedule", false, func(r *recipe) { r.perGroup = 4 }, nil},
		{"workers", "", true, nil, func(e *Env) { e.Workers = 5 }},
		{"checkpoint plan", "", true, nil, func(e *Env) { e.Ckpt = &CheckpointPlan{Every: 2} }},
	} {
		r := baseRecipe()
		if tc.recipe != nil {
			tc.recipe(&r)
		}
		e := r.env()
		if tc.env != nil {
			tc.env(e)
		}
		err := ckpt.Matches(e, "FedAvg")
		switch {
		case tc.component == "" && err != nil:
			t.Errorf("%s: a field outside the identity refused the resume: %v", tc.field, err)
		case tc.component != "" && (err == nil || !strings.Contains(err.Error(), "another "+tc.component+" ")):
			t.Errorf("%s: Matches = %v, want a refusal naming the %s", tc.field, err, tc.component)
		}
	}
}

// TestIdentityPinned: the identity of a fixed environment. The words are
// fixed: a checkpoint records them, and a resume under a binary that
// hashes differently would refuse every checkpoint written before it.
// Two constructions of one recipe must agree, so nothing in the identity
// depends on allocation or call order.
func TestIdentityPinned(t *testing.T) {
	want := Identity{
		0x977746131197a727, 0x10bf14c2f131e129, 0x70973f407dd3f4ff, 0xc487088936a99c8a,
		0xa8c7f832281a39c5, 0x88201fb960ff6465, 0x42f406a2e307ef94, 0xa8c7f832281a39c5,
	}
	if got := baseRecipe().env().Identity(); got != want {
		t.Errorf("Identity() = %#x,\n want %#x", got, want)
	}
	if a, b := baseRecipe().env().Identity(), baseRecipe().env().Identity(); a != b {
		t.Errorf("two constructions of one recipe hash differently: %#x, %#x", a, b)
	}
}

// TestAggIdentityPinned: the aggregator word of the identity is FNV-1a 64
// of the strategy's name, the value the version 1 format's aggregation
// section held. The values are fixed: a checkpoint written before any
// change to the hash must still resume.
func TestAggIdentityPinned(t *testing.T) {
	for _, c := range []struct {
		agg  Aggregator
		want uint64
	}{
		{nil, 0x42f406a2e307ef94},
		{&Median{}, 0xc792e85e201cefb7},
		{&TrimmedMean{Frac: 0.2}, 0x9758a9e96ca8c5c8},
		{&Krum{Frac: 0.25}, 0x113d72c620edb51f},
	} {
		e := baseRecipe().env()
		e.Aggregator = c.agg
		if got := e.Identity()[idAggregator]; got != c.want {
			t.Errorf("aggregator word of %s = %#x, want %#x", AggregatorName(c.agg), got, c.want)
		}
	}
}

// TestNewCheckpointRngRootMatchesSeed: the schedule word a new checkpoint
// records pins the seed's root rng stream. It is rebuilt here from
// rng.State of a root reseeded with the run's seed, followed by the
// seed, rounds, population, EvalEvery and EvalBatch, each a little-endian
// word of one FNV-1a 64.
func TestNewCheckpointRngRootMatchesSeed(t *testing.T) {
	e := baseRecipe().env()
	e.Seed = 99
	var root rng.Rng
	root.Reseed(99)
	st := root.State()
	h := fnv.New64a()
	for _, w := range append(st[:], e.Seed, uint64(e.Rounds), uint64(len(e.Clients)), uint64(e.EvalEvery), uint64(e.EvalBatch)) {
		h.Write(binary.LittleEndian.AppendUint64(nil, w))
	}
	if got, want := e.Identity()[idSchedule], h.Sum64(); got != want {
		t.Fatalf("schedule word = %#x, want %#x: it does not pin the seed's root stream", got, want)
	}
}
