package engine_test

// Golden-equivalence tests: the engine-based trainers must reproduce,
// bit for bit, the results of the seed's hand-rolled round loops. The
// fingerprints below were captured by running the pre-refactor
// implementations (commit b15c818 plus go.mod) on the fixed workload in
// goldenEnv; any change to training arithmetic, communication accounting,
// evaluation, or cluster bookkeeping shows up as a fingerprint mismatch.
//
// The cases are chosen to cover every engine code path: the default
// Local hook (FedAvg), the proximal objective (FedProx), the recursive split machinery (CFL with permissive
// thresholds), multi-model broadcast with a custom Local hook (IFCA), and
// the one-shot pre-clustering phases (PACFL, FedClust).

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"fedclust/internal/core"
	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
)

// goldenEnv builds the fixed equivalence workload: 6 clients in two label
// groups ({0,1} vs {2,3}) on 8×8 synthetic images, an MLP(64,20,4), 6
// rounds with eval every 2, 3 executor workers. Do not change any of
// these constants — the golden fingerprints are tied to them.
func goldenEnv(seed uint64, rounds int) *fl.Env {
	cfg := data.SynthConfig{
		Name: "golden4", C: 1, H: 8, W: 8, Classes: 4,
		TrainPerClass: 40, TestPerClass: 16,
		ClassSep: 0.85, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: seed,
	}
	train, test := data.Generate(cfg)
	clients, _ := fl.BuildGroupClients(train, test,
		[][]int{{0, 1}, {2, 3}}, []int{3, 3}, rng.New(seed))
	return &fl.Env{
		Clients:   clients,
		Factory:   func(fr *rng.Rng) *nn.Sequential { return nn.MLP(fr, 64, 20, 4) },
		Rounds:    rounds,
		Local:     fl.LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9},
		Seed:      seed,
		EvalEvery: 2,
		Workers:   3,
	}
}

// fingerprint reduces a Result to an exact (float-bit-level) signature of
// everything the paper's experiments read off it.
func fingerprint(res *fl.Result) string {
	h := fnv.New64a()
	w := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, a := range res.PerClientAcc {
		w(math.Float64bits(a))
	}
	for _, m := range res.History {
		w(uint64(m.Round))
		w(math.Float64bits(m.MeanAcc))
		w(math.Float64bits(m.MeanLoss))
	}
	return fmt.Sprintf("acc=%016x loss=%016x up=%d down=%d form=%d formUp=%d clusters=%v h=%016x",
		math.Float64bits(res.FinalAcc), math.Float64bits(res.FinalLoss),
		res.Comm.UpBytes, res.Comm.DownBytes,
		res.ClusterFormationRound, res.ClusterFormationUpBytes,
		res.Clusters, h.Sum64())
}

// goldenCases pairs each trainer configuration with the fingerprint its
// pre-engine implementation produced on goldenEnv(77, 6). The
// traffic fields (up/down/formUp) were re-pinned when comm accounting
// switched from the 8·scalars estimate to full framed transport bytes
// (envelope + metadata + wire frame); every learning field — accuracies,
// losses, history hash, clusters — is still the seed's, bit for bit.
var goldenCases = []struct {
	name    string
	trainer func() fl.Trainer
	want    string
}{
	{"FedAvg", func() fl.Trainer { return methods.FedAvg{} },
		"acc=3fecfa4fa4fa4fa4 loss=3fcaf81f04cee325 up=399384 down=401364 form=-1 formUp=0 clusters=[] h=8a7b5f0b9a50518a"},
	{"FedProx", func() fl.Trainer { return methods.FedProx{Mu: 0.1} },
		"acc=3fecfa4fa4fa4fa4 loss=3fcb7191c1d88124 up=399384 down=401364 form=-1 formUp=0 clusters=[] h=fee58494db1a1633"},
	{"CFL", func() fl.Trainer { return methods.CFL{} },
		"acc=3fecfa4fa4fa4fa4 loss=3fcaf81f04cee325 up=399384 down=401364 form=0 formUp=0 clusters=[0 0 0 0 0 0] h=8a7b5f0b9a50518a"},
	{"CFL/split", func() fl.Trainer { return methods.CFL{WarmupRounds: 2, Eps1: 0.8, Eps2: 0.1} },
		"acc=3fef05b05b05b05b loss=3fb809773bae14e8 up=399384 down=401364 form=3 formUp=199692 clusters=[0 0 0 1 1 1] h=01e8190dda165dfa"},
	{"IFCA", func() fl.Trainer { return methods.IFCA{K: 2} },
		"acc=3fecfa4fa4fa4fa4 loss=3fcaf81f04cee325 up=399384 down=799956 form=1 formUp=66564 clusters=[0 0 0 0 0 0] h=8a7b5f0b9a50518a"},
	{"PACFL", func() fl.Trainer { return methods.PACFL{} },
		"acc=3fef05b05b05b05b loss=3fb5c43da15c46f3 up=408732 down=401364 form=0 formUp=9348 clusters=[0 0 0 1 1 1] h=40c8a6da5fbfc6a7"},
	{"FedClust", func() fl.Trainer { return &core.FedClust{} },
		"acc=3fef05b05b05b05b loss=3fb5c43da15c46f3 up=403548 down=468258 form=0 formUp=4164 clusters=[0 0 0 1 1 1] h=40c8a6da5fbfc6a7"},
}

// TestEngineReproducesSeedResults runs every trainer through the shared
// round engine and compares against the pre-refactor fingerprints.
func TestEngineReproducesSeedResults(t *testing.T) {
	for _, c := range goldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			env := goldenEnv(77, 6)
			res := c.trainer().Run(env)
			if got := fingerprint(res); got != c.want {
				t.Errorf("result drifted from seed implementation\n got: %s\nwant: %s", got, c.want)
			}
		})
	}
}

// TestEngineWorkerCountInvariance: results must not depend on executor
// parallelism — the pool gives each worker its own model, and every
// client's arithmetic is keyed by client index, not worker.
func TestEngineWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("worker sweep is covered by the golden cases in -short mode")
	}
	for _, workers := range []int{1, 2, 5, 16} {
		env := goldenEnv(77, 6)
		env.Workers = workers
		res := (&core.FedClust{}).Run(env)
		want := goldenCases[len(goldenCases)-1].want
		if got := fingerprint(res); got != want {
			t.Errorf("workers=%d drifted\n got: %s\nwant: %s", workers, got, want)
		}
	}
}
