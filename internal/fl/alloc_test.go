//go:build !race

// Steady-state allocation regression tests: the zero-alloc property of
// the training hot path is a hard acceptance criterion of the workspace
// refactor and must not silently regress. Excluded under -race because
// the race runtime instruments allocations.

package fl

import (
	"testing"

	"fedclust/internal/data"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
	"fedclust/internal/wire"
)

// allocModel is the small MLP the allocation pins train and evaluate.
func allocModel() *nn.Sequential {
	return nn.MLP(rng.New(3), 64, 20, 4)
}

// allocShadow is allocModel's loaded float32 mirror.
func allocShadow() *nn.SequentialOf[float32] {
	m := allocModel()
	sh := nn.Mirror32(m)
	nn.AssignParams32(sh, m)
	return sh
}

// TestLocalUpdateBatchStepZeroAllocs asserts a warm LocalUpdate batch
// step — zero grads, forward, loss, backward, SGD step, next batch —
// performs zero heap allocations in either element type.
func TestLocalUpdateBatchStepZeroAllocs(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testBatchStepZeroAllocs(t, allocModel()) })
	t.Run("float32", func(t *testing.T) { testBatchStepZeroAllocs(t, allocShadow()) })
}

func testBatchStepZeroAllocs[T tensor.Float](t *testing.T, model *nn.SequentialOf[T]) {
	d := benchDataset(8) // 32 examples; batch 8 divides it evenly
	r := rng.New(5)
	params, grads := model.Params(), model.Grads()
	var st visitState[T]
	st.sgd.Reconfigure(0.1, 0.9, 0)
	bt := data.BatcherOf[T](d, 8)
	bt.Reset(r)
	step := func() {
		b, ok := bt.Next()
		if !ok {
			bt.Reset(r)
			b, _ = bt.Next()
		}
		for _, g := range grads {
			g.Zero()
		}
		logits := model.Forward(b.X, true)
		_, grad, _ := st.ce.Loss(logits, b.Y)
		model.Backward(grad)
		st.sgd.Step(params, grads)
	}
	step() // warm every workspace: model, loss head, optimizer, batcher

	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Fatalf("warm LocalUpdate batch step allocates %v times, want 0", n)
	}
}

// TestLocalUpdateCallSteadyStateAllocs asserts a whole warm LocalUpdate
// call through a reused TrainScratch stays allocation-free — the scratch
// owns the optimizer, loss head, batcher and float32 network. On the
// float32 path that covers the network lookup, parameter rounding, the
// full epoch loop and widening back.
func TestLocalUpdateCallSteadyStateAllocs(t *testing.T) {
	onBothDTypes(t, func(t *testing.T, dtype DType) {
		d := benchDataset(10) // includes a partial final batch (40 % 16 != 0)
		model := allocModel()
		cfg := LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9}
		ts := TrainScratch{DType: dtype}
		r := rng.New(6)
		ts.LocalUpdate(model, d, cfg, r)
		if (ts.f32.net != nil) != (dtype == Float32) {
			t.Fatalf("%v scratch: float32 network built = %v", dtype, ts.f32.net != nil)
		}
		if n := testing.AllocsPerRun(20, func() {
			ts.LocalUpdate(model, d, cfg, r)
		}); n != 0 {
			t.Fatalf("warm LocalUpdate call allocates %v times, want 0", n)
		}
	})
}

// TestEvaluateBatchZeroAllocs asserts a warm evaluation batch — forward,
// loss, accuracy — performs zero heap allocations in either element type.
func TestEvaluateBatchZeroAllocs(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testEvaluateBatchZeroAllocs(t, allocModel()) })
	t.Run("float32", func(t *testing.T) { testEvaluateBatchZeroAllocs(t, allocShadow()) })
}

func testEvaluateBatchZeroAllocs[T tensor.Float](t *testing.T, model *nn.SequentialOf[T]) {
	d := benchDataset(8)
	var ce nn.SoftmaxCEOf[T]
	bt := data.BatcherOf[T](d, 16)
	bt.Reset(nil)
	step := func() {
		b, ok := bt.Next()
		if !ok {
			bt.Reset(nil)
			b, _ = bt.Next()
		}
		logits := model.Forward(b.X, false)
		ce.Loss(logits, b.Y)
		nn.Accuracy(logits, b.Y)
	}
	step() // warm model, loss, batcher
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Fatalf("warm Evaluate batch allocates %v times, want 0", n)
	}
}

// TestEvaluateCallSteadyStateAllocs asserts the whole warm Evaluate call
// through a reused TrainScratch allocates nothing.
func TestEvaluateCallSteadyStateAllocs(t *testing.T) {
	onBothDTypes(t, func(t *testing.T, dtype DType) {
		d := benchDataset(10)
		model := allocModel()
		ts := TrainScratch{DType: dtype}
		ts.Evaluate(model, d, 16)
		if n := testing.AllocsPerRun(20, func() {
			ts.Evaluate(model, d, 16)
		}); n != 0 {
			t.Fatalf("warm Evaluate call allocates %v times, want 0", n)
		}
	})
}

// TestLaneWarmVisitZeroAllocs asserts a warm lane runs full-parameter
// visits across clients of unequal size — the lane-owned batcher rebinds
// to each, including the n % size tail view and a client smaller than
// one batch, and every layer workspace is reshaped to six different
// tails — without touching the heap, in both dtypes and under every
// codec family, in both the in-process and the node form, with an
// IFCA-shaped probe — two vectors loaded and evaluated — before each
// visit. The LeNet-5 population runs one dense and one sparse codec: its
// convolution workspaces are what the MLP cannot reach.
func TestLaneWarmVisitZeroAllocs(t *testing.T) {
	onBothDTypes(t, func(t *testing.T, dtype DType) {
		for _, tc := range []struct {
			name   string
			env    *Env
			codecs []wire.Codec
		}{
			{"mlp", laneEnv(dtype), laneCodecs},
			{"lenet", laneLeNetEnv(dtype), []wire.Codec{wire.Float64, wire.TopKQuant8}},
		} {
			env := tc.env
			for _, cd := range tc.codecs {
				lane := NewLane(env)
				start := nn.FlattenParams(env.NewModel())
				probes := [][]float64{start, make([]float64, len(start))}
				ef := newLaneEF(env, cd, len(start))
				out := make([]float64, len(start))
				var reply []byte
				sweep := func() {
					for c := range env.Clients {
						for _, vec := range probes {
							lane.Load(vec)
							lane.Evaluate(env.Clients[c].Train, 64)
						}
						v := laneVisit(env, c, cd, FullParams, start, ef)
						lane.Visit(v, out)
						reply = lane.VisitFrame(reply[:0], v, out)
					}
				}
				sweep()
				if n := testing.AllocsPerRun(5, sweep); n != 0 {
					t.Errorf("%s/%v: warm visits allocate %v times per sweep, want 0", tc.name, cd, n)
				}
			}
		}
	})
}
