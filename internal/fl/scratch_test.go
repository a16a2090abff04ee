package fl

import (
	"testing"

	"fedclust/internal/data"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
)

// TestTrainScratchReuseBitEquivalent drives one TrainScratch and one
// pooled model through a sequence of client visits with evaluation
// passes interleaved (different batch size, as the engine does) and
// checks every visit's resulting parameters are bit-identical to a run
// with a fresh model and fresh scratch per visit. This is the pooled
// steady state the zero-alloc refactor must not perturb: workspace
// residue, optimizer velocity, loss-head buffers, and batcher state all
// carry over between visits and must not change the arithmetic — on
// either compute path.
func TestTrainScratchReuseBitEquivalent(t *testing.T) {
	onBothDTypes(t, testTrainScratchReuseBitEquivalent)
}

func testTrainScratchReuseBitEquivalent(t *testing.T, dtype DType) {
	mk := func(seed uint64, n int) *data.Dataset { return tinyDataset(n, rng.New(seed)) }
	visits := []*data.Dataset{
		mk(1, 33), // partial final batch (33 % 8 != 0)
		mk(2, 8),  // exactly one batch
		mk(3, 1),  // single example: batch-size-1 shapes
		mk(4, 40), // full batches only
	}

	w0 := nn.FlattenParams(tinyFactory(rng.New(9)))
	cfg := LocalConfig{Epochs: 2, BatchSize: 8, LR: 0.1, Momentum: 0.9}

	// Reused path: one model, one scratch, eval interleaved.
	pooled := tinyFactory(rng.New(9))
	ts := TrainScratch{DType: dtype}
	var got [][]float64
	for i, d := range visits {
		nn.LoadParams(pooled, w0)
		ts.LocalUpdate(pooled, d, cfg, rng.New(uint64(100+i)))
		got = append(got, nn.FlattenParams(pooled))
		ts.Evaluate(pooled, d, 5) // different batch size → workspace churn
	}

	// Fresh path: new model and scratch per visit, no eval.
	for i, d := range visits {
		fresh := tinyFactory(rng.New(9))
		nn.LoadParams(fresh, w0)
		fts := TrainScratch{DType: dtype}
		fts.LocalUpdate(fresh, d, cfg, rng.New(uint64(100+i)))
		want := nn.FlattenParams(fresh)
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("visit %d (n=%d): param %d = %v, want %v (reuse not bit-equivalent)",
					i, d.Len(), j, got[i][j], want[j])
			}
		}
	}
}
