package tensor_test

// Float32 golden fingerprints. The float64 path has bit-level pins
// (internal/engine/equivalence_test.go); until this file the float32
// path had only divergence bounds and self-consistency checks, so a
// refactor could have changed every float32 bit and stayed green. The
// constants below were recorded at commit a9d0e46 — the last one with a
// hand-mirrored float32 stack — on both kernel paths, and must never be
// regenerated to make a change pass.
//
// The file lives in package tensor's directory because the kernel-path
// switch (SetUseASM) is test-only API of this package.

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
	"fedclust/internal/tensor"
)

// onBothF32Paths runs f once per float32 kernel path, pure-Go first. The
// AVX2 leg is skipped on hosts whose init did not select it.
func onBothF32Paths(t *testing.T, f func(t *testing.T, path string)) {
	hasASM := tensor.UseASM()
	for _, useASM := range []bool{false, true} {
		path := "purego"
		if useASM {
			path = "avx2"
		}
		t.Run(path, func(t *testing.T) {
			if useASM && !hasASM {
				t.Skip("host has no AVX2+FMA")
			}
			defer tensor.SetUseASM(tensor.SetUseASM(useASM))
			f(t, path)
		})
	}
}

// visitFingerprint hashes everything one float32 client visit produces:
// the mean training loss, every trained parameter, and the evaluation
// loss and accuracy of the trained model.
func visitFingerprint(model *nn.Sequential, d *data.Dataset, cfg fl.LocalConfig) string {
	ts := fl.TrainScratch{DType: fl.Float32}
	h := fnv.New64a()
	w := func(v float64) { _ = binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	w(ts.LocalUpdate(model, d, cfg, rng.New(7)))
	for _, v := range nn.FlattenParams(model) {
		w(v)
	}
	loss, acc := ts.Evaluate(model, d, 48)
	w(loss)
	w(acc)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFloat32VisitGolden pins LocalUpdate + Evaluate on the float32 path
// for the two zoo architectures the benchmark trains, plus a stack that
// reaches every remaining layer kind and optimizer term (tanh, average
// pooling, sigmoid, dropout, weight decay, the FedProx proximal pull).
func TestFloat32VisitGolden(t *testing.T) {
	img, _ := data.Generate(data.SynthConfig{
		Name: "f32golden", C: 1, H: 12, W: 12, Classes: 4,
		TrainPerClass: 25, TestPerClass: 4,
		ClassSep: 0.85, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: 21,
	})
	plain := fl.LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9}
	full := fl.LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.05, Momentum: 0.9, WeightDecay: 1e-3, ProxMu: 0.1}
	cases := []struct {
		name  string
		build func() *nn.Sequential
		cfg   fl.LocalConfig
		want  map[string]string
	}{
		{"lenet5", func() *nn.Sequential { return nn.LeNet5(rng.New(1), 1, 12, 12, 4, 0.5) }, plain,
			map[string]string{"purego": "be8bf4510b5ad4e1", "avx2": "05d75c6fd73f761a"}},
		{"mlp", func() *nn.Sequential { return nn.MLP(rng.New(2), 144, 24, 4) }, plain,
			map[string]string{"purego": "1eabf67d5e9bda15", "avx2": "86976dececcc09ff"}},
		{"classic-stack", func() *nn.Sequential {
			r := rng.New(3)
			g := tensor.ConvGeom{InC: 1, InH: 12, InW: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
			conv := nn.NewConv2D(g, 3, r)
			pool := nn.NewAvgPool2(3, 12, 12)
			return nn.NewSequential(conv, nn.NewTanh(conv.OutDim()), pool,
				nn.NewDense(pool.OutDim(), 16, r), nn.NewSigmoid(16),
				nn.NewDropout(16, 0.25, r.Derive(1)), nn.NewDense(16, 4, r))
		}, full,
			map[string]string{"purego": "6fa28d1848b4140b", "avx2": "cb9957c354dc103f"}},
	}
	onBothF32Paths(t, func(t *testing.T, path string) {
		for _, c := range cases {
			if got := visitFingerprint(c.build(), img, c.cfg); got != c.want[path] {
				t.Errorf("%s: float32 visit drifted\n got: %s\nwant: %s", c.name, got, c.want[path])
			}
		}
	})
}

// f32GoldenEnv is internal/engine's goldenEnv (same constants, so the two
// suites describe one workload) on the float32 path with 3 rounds.
func f32GoldenEnv() *fl.Env {
	const seed = 77
	train, test := data.Generate(data.SynthConfig{
		Name: "golden4", C: 1, H: 8, W: 8, Classes: 4,
		TrainPerClass: 40, TestPerClass: 16,
		ClassSep: 0.85, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: seed,
	})
	clients, _ := fl.BuildGroupClients(train, test,
		[][]int{{0, 1}, {2, 3}}, []int{3, 3}, rng.New(seed))
	return &fl.Env{
		Clients:   clients,
		Factory:   func(fr *rng.Rng) *nn.Sequential { return nn.MLP(fr, 64, 20, 4) },
		Rounds:    3,
		Local:     fl.LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9},
		Seed:      seed,
		EvalEvery: 1,
		Workers:   3,
		DType:     fl.Float32,
	}
}

// resultFingerprint is internal/engine's fingerprint: an exact signature
// of everything the experiments read off a Result.
func resultFingerprint(res *fl.Result) string {
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

// TestFloat32RunGolden pins whole float32 runs through the round engine:
// FedAvg (train + the evaluation protocol's per-worker shadows) and
// FedClust (plus the warm-up visits and one-shot formation).
func TestFloat32RunGolden(t *testing.T) {
	cases := []struct {
		name    string
		trainer func() fl.Trainer
		want    map[string]string
	}{
		{"FedAvg", func() fl.Trainer { return methods.FedAvg{} },
			map[string]string{
				"purego": "acc=3fec71c71c71c71c loss=3fd5e9fc62003da9 up=199692 down=200682 form=-1 formUp=0 clusters=[] h=fc922a04631f7b3c",
				"avx2":   "acc=3fec71c71c71c71c loss=3fd5e9fc69efab13 up=199692 down=200682 form=-1 formUp=0 clusters=[] h=e70509f83352b8b4",
			}},
		{"FedClust", func() fl.Trainer { return &core.FedClust{} },
			map[string]string{
				"purego": "acc=3fef05b05b05b05b loss=3fba36e337ff128b up=203856 down=267576 form=0 formUp=4164 clusters=[0 0 0 1 1 1] h=71b54097286d6cc9",
				"avx2":   "acc=3fef05b05b05b05b loss=3fba36e36b0abcc0 up=203856 down=267576 form=0 formUp=4164 clusters=[0 0 0 1 1 1] h=e9ea75e0f00e54ec",
			}},
	}
	onBothF32Paths(t, func(t *testing.T, path string) {
		for _, c := range cases {
			if got := resultFingerprint(c.trainer().Run(f32GoldenEnv())); got != c.want[path] {
				t.Errorf("%s: float32 run drifted\n got: %s\nwant: %s", c.name, got, c.want[path])
			}
		}
	})
}
