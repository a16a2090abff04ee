package data

import (
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// referenceBatches is the materializing form of batching — shuffle the
// identity order with r, then cut it into fresh tensors of at most size
// rows — kept as the oracle Batcher's reused views are checked against
// (it was the production API before Batcher; LocalUpdate's bit-exactness
// across that change rests on the two agreeing).
func referenceBatches(d *Dataset, size int, r *rng.Rng) []Batch[float64] {
	n := d.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if r != nil {
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	var out []Batch[float64]
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		b := Batch[float64]{X: tensor.New(hi-lo, d.Dim()), Y: make([]int, hi-lo)}
		for i := lo; i < hi; i++ {
			copy(b.X.Row(i-lo), d.X.Row(order[i]))
			b.Y[i-lo] = d.Y[order[i]]
		}
		out = append(out, b)
	}
	return out
}

// bothTypes runs one test body per element type.
func bothTypes(t *testing.T, f64, f32 func(t *testing.T)) {
	t.Run("float64", f64)
	t.Run("float32", f32)
}

// TestBatcherMatchesReference pins the bit-exact property LocalUpdate
// rests on, for both element types: given the same rng stream, the
// Batcher yields the reference batches in the reference order, epoch
// after epoch (each Reset reshuffles the identity order, consuming the
// same draws), with every feature rounded to T exactly once.
func TestBatcherMatchesReference(t *testing.T) {
	bothTypes(t, testBatcherMatchesReference[float64], testBatcherMatchesReference[float32])
}

func testBatcherMatchesReference[T tensor.Float](t *testing.T) {
	d := toyDataset(23, 4)
	d.X.Scale(1.0 / 3) // not representable in float32: rounding is visible
	rA, rB := rng.New(7), rng.New(7)
	bt := BatcherOf[T](d, 5)
	for epoch := 0; epoch < 3; epoch++ {
		want := referenceBatches(d, 5, rA)
		bt.Reset(rB)
		for i, wb := range want {
			gb, ok := bt.Next()
			if !ok {
				t.Fatalf("epoch %d: Batcher exhausted at batch %d/%d", epoch, i, len(want))
			}
			if gb.X.Shape[0] != wb.X.Shape[0] || gb.X.Shape[1] != wb.X.Shape[1] {
				t.Fatalf("epoch %d batch %d: shape %v, want %v", epoch, i, gb.X.Shape, wb.X.Shape)
			}
			for j := range wb.X.Data {
				if gb.X.Data[j] != T(wb.X.Data[j]) {
					t.Fatalf("epoch %d batch %d: X differs at %d", epoch, i, j)
				}
			}
			for j := range wb.Y {
				if gb.Y[j] != wb.Y[j] {
					t.Fatalf("epoch %d batch %d: Y differs at %d", epoch, i, j)
				}
			}
		}
		if _, ok := bt.Next(); ok {
			t.Fatalf("epoch %d: Batcher yielded extra batch", epoch)
		}
	}
}

// TestBatcherCoversAllExamplesOnce: an epoch is a partition of the
// dataset into ceil(n/size) batches, the last one partial.
func TestBatcherCoversAllExamplesOnce(t *testing.T) {
	bothTypes(t, testBatcherCoversAllExamplesOnce[float64], testBatcherCoversAllExamplesOnce[float32])
}

func testBatcherCoversAllExamplesOnce[T tensor.Float](t *testing.T) {
	d := toyDataset(10, 3)
	bt := BatcherOf[T](d, 4)
	bt.Reset(rng.New(1))
	seen := make(map[T]bool)
	var sizes []int
	for {
		b, ok := bt.Next()
		if !ok {
			break
		}
		sizes = append(sizes, b.X.Shape[0])
		for i := 0; i < b.X.Shape[0]; i++ {
			seen[b.X.At(i, 0)] = true
		}
	}
	if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 2 {
		t.Fatalf("batch sizes %v, want [4 4 2]", sizes)
	}
	if len(seen) != 10 {
		t.Fatalf("batches covered %d distinct rows, want 10", len(seen))
	}
}

// TestBatcherDeterministicNilRng: a nil rng preserves dataset order.
func TestBatcherDeterministicNilRng(t *testing.T) {
	bothTypes(t, testBatcherDeterministicNilRng[float64], testBatcherDeterministicNilRng[float32])
}

func testBatcherDeterministicNilRng[T tensor.Float](t *testing.T) {
	d := toyDataset(10, 3)
	bt := BatcherOf[T](d, 4)
	bt.Reset(nil)
	row := 0
	for {
		b, ok := bt.Next()
		if !ok {
			break
		}
		for i := range b.Y {
			if b.Y[i] != d.Y[row] || b.X.At(i, 0) != T(d.X.At(row, 0)) {
				t.Fatalf("nil-rng order broken at row %d", row)
			}
			row++
		}
	}
	if row != d.Len() {
		t.Fatalf("saw %d rows, want %d", row, d.Len())
	}
}

// TestBatcherSmallerThanBatch covers n < size: one partial batch.
func TestBatcherSmallerThanBatch(t *testing.T) {
	d := toyDataset(3, 2)
	bt := d.Batcher(8)
	bt.Reset(nil)
	b, ok := bt.Next()
	if !ok || b.X.Shape[0] != 3 || len(b.Y) != 3 {
		t.Fatalf("single partial batch wrong: ok=%v shape=%v", ok, b.X.Shape)
	}
	if _, ok := bt.Next(); ok {
		t.Fatal("extra batch after exhaustion")
	}
}

// TestBatcherRebindsAcrossDatasets: one batcher serves datasets of
// unequal size and alternating batch sizes — exact batch shapes each
// time, including the n % size tail and n < size — and, once it has seen
// the largest, rebinding and a full epoch allocate nothing.
func TestBatcherRebindsAcrossDatasets(t *testing.T) {
	bothTypes(t, testBatcherRebinds[float64], testBatcherRebinds[float32])
}

func testBatcherRebinds[T tensor.Float](t *testing.T) {
	sets := []*Dataset{toyDataset(23, 4), toyDataset(3, 4), toyDataset(16, 4), toyDataset(9, 4)}
	sizes := []int{5, 8}
	var bt Batcher[T]
	epoch := func(d *Dataset, size int) {
		bt.Bind(d, size)
		bt.Reset(nil)
		row := 0
		for {
			b, ok := bt.Next()
			if !ok {
				break
			}
			want := size
			if d.Len()-row < size {
				want = d.Len() - row
			}
			if b.X.Shape[0] != want || len(b.Y) != want || len(b.X.Data) != want*d.Dim() {
				t.Fatalf("n=%d size=%d row %d: batch shape %v / %d labels, want %d rows", d.Len(), size, row, b.X.Shape, len(b.Y), want)
			}
			for i := range b.Y {
				if b.Y[i] != d.Y[row] || b.X.At(i, 0) != T(d.X.At(row, 0)) {
					t.Fatalf("n=%d size=%d: row %d wrong after rebind", d.Len(), size, row)
				}
				row++
			}
		}
		if row != d.Len() {
			t.Fatalf("n=%d size=%d: saw %d rows", d.Len(), size, row)
		}
	}
	sweep := func() {
		for _, d := range sets {
			for _, size := range sizes {
				epoch(d, size)
			}
		}
	}
	sweep()
	if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
		t.Fatalf("warm rebinding allocated %.1f times per sweep", allocs)
	}
}

// TestBatcherViewsAreReused pins the view semantics: a full-size batch
// returned by Next aliases the previous full-size batch's storage.
func TestBatcherViewsAreReused(t *testing.T) {
	d := toyDataset(12, 2)
	bt := d.Batcher(4)
	bt.Reset(nil)
	b1, _ := bt.Next()
	b2, _ := bt.Next()
	if &b1.X.Data[0] != &b2.X.Data[0] {
		t.Fatal("full batches should share the backing buffer")
	}
}

// TestBatcherZeroSizePanics: a non-positive batch size is a caller bug.
func TestBatcherZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size 0 did not panic")
		}
	}()
	toyDataset(4, 2).Batcher(0)
}
