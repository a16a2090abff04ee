package nn

import "fedclust/internal/tensor"

// ws is a lazily sized rank-2 tensor workspace owned by a layer (or the
// loss head). get returns a (rows, cols) tensor backed by grow-only
// storage; the most recent shape headers are cached (MRU order) so the
// steady cadence of a pooled model — full training batches, the partial
// final batch, full evaluation batches, and the partial evaluation tail
// all interleaving on one reused network — allocates nothing once warm.
//
// Tensors returned by get alias the same storage: only the most recent
// one is valid, and its contents are unspecified (the caller must
// overwrite every element or Zero it first). This is the buffer contract
// behind the layer workspace rules in DESIGN.md §5.
type ws[T tensor.Float] struct {
	buf []T
	// hdrs caches shape headers most-recently-used first. Four entries
	// cover the train-full/train-partial/eval-full/eval-partial cycle the
	// round engine drives through each pooled model.
	hdrs [4]*tensor.Of[T]
}

// get returns the (rows, cols) workspace tensor, reusing storage and
// headers whenever possible.
func (w *ws[T]) get(rows, cols int) *tensor.Of[T] {
	for i, h := range w.hdrs {
		if h != nil && h.Shape[0] == rows && h.Shape[1] == cols {
			copy(w.hdrs[1:i+1], w.hdrs[:i]) // move hit to front
			w.hdrs[0] = h
			return h
		}
	}
	need := rows * cols
	if cap(w.buf) < need {
		w.buf = make([]T, need)
		// Old headers alias the outgrown storage; drop them so every
		// cached header keeps sharing one backing array.
		w.hdrs = [4]*tensor.Of[T]{}
	}
	h := tensor.FromSlice(w.buf[:need:need], rows, cols)
	copy(w.hdrs[1:], w.hdrs[:len(w.hdrs)-1])
	w.hdrs[0] = h
	return h
}

// growBools returns a length-n bool scratch reusing s when capacity
// allows. Contents are unspecified; the caller must write every element.
func growBools(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}

// growInts is growBools for int scratch slices.
func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}
