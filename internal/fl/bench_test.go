package fl

import (
	"testing"

	"fedclust/internal/data"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
)

// benchDataset builds a small synthetic 1×8×8 four-class dataset, the same
// geometry the golden equivalence workload uses.
func benchDataset(perClass int) *data.Dataset {
	train, _ := data.Generate(data.SynthConfig{
		Name: "bench", C: 1, H: 8, W: 8, Classes: 4,
		TrainPerClass: perClass, TestPerClass: 4,
		ClassSep: 0.85, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: 11,
	})
	return train
}

// onBothDTypes runs f once per compute path.
func onBothDTypes(t *testing.T, f func(t *testing.T, dtype DType)) {
	for _, dtype := range []DType{Float64, Float32} {
		dtype := dtype
		t.Run(dtype.String(), func(t *testing.T) { f(t, dtype) })
	}
}

// BenchmarkLocalUpdate measures one client visit: two local epochs of
// minibatch SGD with momentum on an MLP — the exact inner loop every
// federated round multiplies by rounds × clients.
func BenchmarkLocalUpdate(b *testing.B) {
	d := benchDataset(40)
	model := nn.MLP(rng.New(1), d.Dim(), 20, d.Classes)
	cfg := LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9}
	w0 := nn.FlattenParams(model)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.LoadParams(model, w0)
		LocalUpdate(model, d, cfg, rng.New(uint64(i)))
	}
}

// BenchmarkLocalUpdateLeNet is LocalUpdate on the Table-I convolutional
// architecture, where im2col and the conv matmuls dominate.
func BenchmarkLocalUpdateLeNet(b *testing.B) {
	d := benchDataset(40)
	model := nn.LeNet5(rng.New(1), d.C, d.H, d.W, d.Classes, 0.5)
	cfg := LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.9}
	w0 := nn.FlattenParams(model)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.LoadParams(model, w0)
		LocalUpdate(model, d, cfg, rng.New(uint64(i)))
	}
}

// BenchmarkEvaluate measures one full-dataset evaluation pass (the
// personalized-evaluation protocol runs this per client per eval round).
func BenchmarkEvaluate(b *testing.B) {
	d := benchDataset(40)
	model := nn.MLP(rng.New(2), d.Dim(), 20, d.Classes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(model, d, 64)
	}
}

// benchLocalUpdate runs BenchmarkLocalUpdate's exact visit through a
// persistent per-dtype scratch — the engine's actual hot path (one warm
// TrainScratch per worker) — so the float64/float32 pair measures the
// compute paths, not scratch construction.
func benchLocalUpdate(b *testing.B, dtype DType) {
	d := benchDataset(40)
	model := nn.MLP(rng.New(1), d.Dim(), 20, d.Classes)
	cfg := LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9}
	w0 := nn.FlattenParams(model)
	ts := TrainScratch{DType: dtype}
	ts.LocalUpdate(model, d, cfg, rng.New(0)) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.LoadParams(model, w0)
		ts.LocalUpdate(model, d, cfg, rng.New(uint64(i)))
	}
}

func BenchmarkLocalUpdateScratch64(b *testing.B) { benchLocalUpdate(b, Float64) }
func BenchmarkLocalUpdateScratch32(b *testing.B) { benchLocalUpdate(b, Float32) }

// benchLocalUpdateLeNet is benchLocalUpdate on the Table-I
// convolutional architecture (im2col + conv matmuls dominate).
func benchLocalUpdateLeNet(b *testing.B, dtype DType) {
	d := benchDataset(40)
	model := nn.LeNet5(rng.New(1), d.C, d.H, d.W, d.Classes, 0.5)
	cfg := LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.9}
	w0 := nn.FlattenParams(model)
	ts := TrainScratch{DType: dtype}
	ts.LocalUpdate(model, d, cfg, rng.New(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.LoadParams(model, w0)
		ts.LocalUpdate(model, d, cfg, rng.New(uint64(i)))
	}
}

func BenchmarkLocalUpdateLeNet64(b *testing.B) { benchLocalUpdateLeNet(b, Float64) }
func BenchmarkLocalUpdateLeNet32(b *testing.B) { benchLocalUpdateLeNet(b, Float32) }

// benchEvaluate is BenchmarkEvaluate through a per-dtype scratch.
func benchEvaluate(b *testing.B, dtype DType) {
	d := benchDataset(40)
	model := nn.MLP(rng.New(2), d.Dim(), 20, d.Classes)
	ts := TrainScratch{DType: dtype}
	ts.Evaluate(model, d, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Evaluate(model, d, 64)
	}
}

func BenchmarkEvaluateCE64(b *testing.B) { benchEvaluate(b, Float64) }
func BenchmarkEvaluateCE32(b *testing.B) { benchEvaluate(b, Float32) }
