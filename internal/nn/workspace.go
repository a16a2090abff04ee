package nn

import "fedclust/internal/tensor"

// ws is a lazily sized rank-2 tensor workspace owned by a layer (or the
// loss head). get returns a (rows, cols) tensor backed by grow-only
// storage, and always the same tensor: its header is rewritten in place,
// so however many batch shapes interleave on one reused network — full
// and partial training batches, evaluation batches, every client's own
// tail — a warm workspace allocates nothing.
//
// Only the most recent get is valid: an earlier result is the same
// tensor and changes shape with it, and its contents are unspecified
// (the caller must overwrite every element or Zero it first). This is
// the buffer contract behind the layer workspace rules in DESIGN.md §5.
type ws[T tensor.Float] struct {
	buf   []T
	shape [2]int
	hdr   tensor.Of[T]
}

// get returns the workspace tensor, reshaped to (rows, cols) over
// storage that is kept unless it is too small.
func (w *ws[T]) get(rows, cols int) *tensor.Of[T] {
	need := rows * cols
	if cap(w.buf) < need {
		w.buf = make([]T, need)
	}
	w.shape = [2]int{rows, cols}
	w.hdr.Shape, w.hdr.Data = w.shape[:], w.buf[:need:need]
	return &w.hdr
}

// growInts returns a length-n int scratch reusing s when capacity
// allows. Contents are unspecified; the caller must write every element.
func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}
