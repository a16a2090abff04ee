package tensor_test

// Float32 golden fingerprints. The float64 path has bit-level pins
// (internal/engine/equivalence_test.go); until this file the float32
// path had only divergence bounds and self-consistency checks, so a
// refactor could have changed every float32 bit and stayed green. Each
// case has one value, and both kernel paths must produce it: the float32
// kernels sum every output as one in-order chain, as the float64 ones
// do, so the assembly and the pure-Go bodies agree bit for bit. The
// constants were re-recorded once, when float32 moved to those kernels
// (CHANGES.md lists old → new), and must never be regenerated to make a
// change pass.
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

// onBothPaths runs f once per kernel path, pure-Go first. The AVX2 leg
// is skipped on hosts whose init did not select it.
func onBothPaths(t *testing.T, f func(t *testing.T)) {
	hasASM := tensor.UseASM()
	for _, useASM := range []bool{false, true} {
		path := "purego"
		if useASM {
			path = "avx2"
		}
		t.Run(path, func(t *testing.T) {
			if useASM && !hasASM {
				t.Skip("host has no AVX2")
			}
			defer tensor.SetUseASM(tensor.SetUseASM(useASM))
			f(t)
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
// for the two zoo architectures the benchmark trains, plus LeNet-5 under
// every remaining optimizer term (weight decay, the FedProx proximal
// pull); lenet5-full was recorded at 982d228.
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
		want  string
	}{
		{"lenet5", func() *nn.Sequential { return nn.LeNet5(rng.New(1), 1, 12, 12, 4, 0.5) }, plain, "866289d1269f730f"},
		{"mlp", func() *nn.Sequential { return nn.MLP(rng.New(2), 144, 24, 4) }, plain, "772e64b9f4ae9de4"},
		{"lenet5-full", func() *nn.Sequential { return nn.LeNet5(rng.New(3), 1, 12, 12, 4, 0.5) }, full, "5e994881c9bf60ac"},
	}
	onBothPaths(t, func(t *testing.T) {
		for _, c := range cases {
			if got := visitFingerprint(c.build(), img, c.cfg); got != c.want {
				t.Errorf("%s: float32 visit drifted\n got: %s\nwant: %s", c.name, got, c.want)
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
// FedAvg (train + evaluation on the lanes' float32 shadows) and
// FedClust (plus the warm-up visits and one-shot formation).
func TestFloat32RunGolden(t *testing.T) {
	cases := []struct {
		name    string
		trainer func() fl.Trainer
		want    string
	}{
		{"FedAvg", func() fl.Trainer { return methods.FedAvg{} },
			"acc=3fec71c71c71c71c loss=3fd5e9fc70b1d528 up=199692 down=200682 form=-1 formUp=0 clusters=[] h=c9af11ea47585df0"},
		{"FedClust", func() fl.Trainer { return &core.FedClust{} },
			"acc=3fef05b05b05b05b loss=3fba36e36efa6573 up=203856 down=267576 form=0 formUp=4164 clusters=[0 0 0 1 1 1] h=baa164b99641e983"},
	}
	onBothPaths(t, func(t *testing.T) {
		for _, c := range cases {
			if got := resultFingerprint(c.trainer().Run(f32GoldenEnv())); got != c.want {
				t.Errorf("%s: float32 run drifted\n got: %s\nwant: %s", c.name, got, c.want)
			}
		}
	})
}
