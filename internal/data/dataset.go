// Package data provides the dataset substrate of the reproduction: a
// compact in-memory labeled dataset type with batching, and synthetic
// class-conditional image generators standing in for CIFAR-10, Fashion-
// MNIST, and SVHN (see DESIGN.md §2 for why the substitution preserves the
// clustered-FL behaviour the paper studies).
package data

import (
	"fmt"
	"sync"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// Dataset is an in-memory labeled dataset of flattened CHW images. It is
// read-only after construction (the float32 feature copy is built once,
// under a sync.Once), so any number of goroutines may batch over one
// dataset at the same time, each through its own Batcher.
type Dataset struct {
	Name    string
	X       *tensor.Tensor // (n, C*H*W)
	Y       []int          // length n, values in [0, Classes)
	Classes int
	C, H, W int

	// x32 is the lazily built float32 copy of X that float32 batchers
	// read (one rounding per scalar; X stays canonical).
	x32     *tensor.Tensor32
	x32Once sync.Once
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Y) }

// Dim returns the flattened feature width.
func (d *Dataset) Dim() int { return d.C * d.H * d.W }

// Validate panics if the dataset is internally inconsistent.
func (d *Dataset) Validate() {
	if d.X.Shape[0] != len(d.Y) {
		panic(fmt.Sprintf("data: %s has %d rows but %d labels", d.Name, d.X.Shape[0], len(d.Y)))
	}
	if d.X.Shape[1] != d.Dim() {
		panic(fmt.Sprintf("data: %s feature width %d != C*H*W %d", d.Name, d.X.Shape[1], d.Dim()))
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.Classes {
			panic(fmt.Sprintf("data: %s label %d at row %d out of range", d.Name, y, i))
		}
	}
}

// Subset returns a new dataset containing the given rows (copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{
		Name:    d.Name,
		X:       tensor.New(len(idx), d.Dim()),
		Y:       make([]int, len(idx)),
		Classes: d.Classes,
		C:       d.C, H: d.H, W: d.W,
	}
	for i, src := range idx {
		copy(out.X.Row(i), d.X.Row(src))
		out.Y[i] = d.Y[src]
	}
	return out
}

// LabelHistogram returns the per-class example counts.
func (d *Dataset) LabelHistogram() []int {
	h := make([]int, d.Classes)
	for _, y := range d.Y {
		h[y]++
	}
	return h
}

// LabelDistribution returns the per-class proportions (sums to 1 for
// non-empty datasets).
func (d *Dataset) LabelDistribution() []float64 {
	h := d.LabelHistogram()
	p := make([]float64, len(h))
	if d.Len() == 0 {
		return p
	}
	inv := 1 / float64(d.Len())
	for i, c := range h {
		p[i] = float64(c) * inv
	}
	return p
}

// Batch is one minibatch of element type T: inputs plus labels.
type Batch[T tensor.Float] struct {
	X *tensor.Of[T]
	Y []int
}

// Batcher cuts a dataset into shuffled minibatches of at most size
// examples (the final partial batch included), copying each batch into
// one persistent backing buffer instead of materializing every batch of
// every epoch. Next therefore yields views — a returned Batch is valid
// only until the next Next, Reset or Bind call — and a warm epoch
// performs no heap allocations. A float32 batcher reads the dataset's
// float32 feature copy and consumes exactly the shuffle draws a float64
// one does, so for the same epoch RNG both element types see identical
// batch composition.
//
// A Batcher belongs to whoever iterates (a training scratch, a test),
// never to the dataset: two visits to one dataset hold two batchers and
// share nothing mutable. The zero value is ready for Bind, and one
// batcher serves any sequence of datasets and sizes — its buffers only
// grow, so rebinding allocates nothing once it has seen the largest.
type Batcher[T tensor.Float] struct {
	d     *Dataset
	size  int
	order []int
	pos   int
	buf   []T
	y     []int
	// full is the (size, dim) view over buf, tail the (n%size, dim) view
	// over its prefix. Bind rewrites both headers in place (they are the
	// batcher's own, so tensor.Of's fixed-shape rule holds between Binds).
	full, tail           tensor.Of[T]
	fullShape, tailShape [2]int
}

// Batcher returns a new float64 batcher over d.
func (d *Dataset) Batcher(size int) *Batcher[float64] { return BatcherOf[float64](d, size) }

// Batcher32 is Batcher for the float32 compute path.
func (d *Dataset) Batcher32(size int) *Batcher[float32] { return BatcherOf[float32](d, size) }

// BatcherOf is Batcher/Batcher32 for callers generic over the element
// type.
func BatcherOf[T tensor.Float](d *Dataset, size int) *Batcher[T] {
	b := &Batcher[T]{}
	b.Bind(d, size)
	return b
}

// Bind points the batcher at dataset d with the given batch size,
// leaving it exhausted until the next Reset.
func (b *Batcher[T]) Bind(d *Dataset, size int) {
	if size <= 0 {
		panic(fmt.Sprintf("data: batch size must be positive, got %d", size))
	}
	n, dim := d.Len(), d.Dim()
	rows := size
	if n < size {
		rows = n
	}
	if cap(b.order) < n {
		b.order = make([]int, n)
	}
	if cap(b.y) < rows {
		b.y = make([]int, rows)
	}
	if cap(b.buf) < rows*dim {
		b.buf = make([]T, rows*dim)
	}
	b.d, b.size = d, size
	b.order, b.pos = b.order[:n], n
	b.y = b.y[:rows]
	rem := n % size
	b.fullShape, b.tailShape = [2]int{rows, dim}, [2]int{rem, dim}
	b.full = tensor.Of[T]{Shape: b.fullShape[:], Data: b.buf[:rows*dim]}
	b.tail = tensor.Of[T]{Shape: b.tailShape[:], Data: b.buf[:rem*dim]}
}

// features returns the dataset's feature matrix in element type T: X
// itself for float64, the float32 copy (built on first use) otherwise.
func features[T tensor.Float](d *Dataset) *tensor.Of[T] {
	if x, ok := any(d.X).(*tensor.Of[T]); ok {
		return x
	}
	d.x32Once.Do(func() {
		d.x32 = tensor.New32(d.X.Shape...)
		for i, v := range d.X.Data {
			d.x32.Data[i] = float32(v)
		}
	})
	return any(d.x32).(*tensor.Of[T])
}

// Reset rewinds the batcher for a new epoch: the identity order is
// reshuffled with r, so the stream consumption — and therefore the batch
// composition — depends only on the dataset length. A nil rng yields
// deterministic order.
func (b *Batcher[T]) Reset(r *rng.Rng) {
	b.pos = 0
	for i := range b.order {
		b.order[i] = i
	}
	if r != nil {
		r.Shuffle(len(b.order), func(i, j int) { b.order[i], b.order[j] = b.order[j], b.order[i] })
	}
}

// Next copies the next minibatch into the reused view and returns it,
// or ok=false when the epoch is exhausted. The final partial batch is
// included, as a smaller view over the same buffer.
func (b *Batcher[T]) Next() (batch Batch[T], ok bool) {
	n := b.d.Len()
	if b.pos >= n {
		return Batch[T]{}, false
	}
	feats := features[T](b.d)
	hi := b.pos + b.size
	x := &b.full
	if hi > n {
		hi = n
		x = &b.tail
	}
	count := hi - b.pos
	for i := 0; i < count; i++ {
		src := b.order[b.pos+i]
		copy(x.Row(i), feats.Row(src))
		b.y[i] = b.d.Y[src]
	}
	b.pos = hi
	return Batch[T]{X: x, Y: b.y[:count]}, true
}

// Split partitions the dataset into two disjoint parts with the first
// receiving ceil(frac*n) shuffled examples — used for train/validation
// splits inside clients.
func (d *Dataset) Split(frac float64, r *rng.Rng) (*Dataset, *Dataset) {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("data: split fraction %v out of [0,1]", frac))
	}
	n := d.Len()
	order := r.Perm(n)
	cut := int(frac*float64(n) + 0.999999)
	if cut > n {
		cut = n
	}
	return d.Subset(order[:cut]), d.Subset(order[cut:])
}

// Merge concatenates datasets with identical geometry into one.
func Merge(parts ...*Dataset) *Dataset {
	if len(parts) == 0 {
		panic("data: Merge of nothing")
	}
	first := parts[0]
	total := 0
	for _, p := range parts {
		if p.Dim() != first.Dim() || p.Classes != first.Classes {
			panic("data: Merge with mismatched geometry")
		}
		total += p.Len()
	}
	out := &Dataset{
		Name:    first.Name,
		X:       tensor.New(total, first.Dim()),
		Y:       make([]int, total),
		Classes: first.Classes,
		C:       first.C, H: first.H, W: first.W,
	}
	row := 0
	for _, p := range parts {
		for i := 0; i < p.Len(); i++ {
			copy(out.X.Row(row), p.X.Row(i))
			out.Y[row] = p.Y[i]
			row++
		}
	}
	return out
}

// FilterClasses returns the subset of d whose labels are in keep.
func (d *Dataset) FilterClasses(keep []int) *Dataset {
	set := make(map[int]bool, len(keep))
	for _, k := range keep {
		set[k] = true
	}
	var idx []int
	for i, y := range d.Y {
		if set[y] {
			idx = append(idx, i)
		}
	}
	return d.Subset(idx)
}
