package fl

import (
	"fmt"
	"math"
	"unsafe"
)

// WeightedAverageInto computes the sample-count-weighted average of
// parameter vectors, Σ (wᵢ/Σw)·vecᵢ — FedAvg's aggregation rule — into a
// caller-provided buffer, so round loops reuse one scratch vector instead
// of allocating per aggregation. It panics on empty input, mismatched
// lengths, or non-positive total weight. dst is zeroed first and must not
// alias any input vector. Returns dst.
func WeightedAverageInto(dst []float64, vecs [][]float64, weights []float64) []float64 {
	if len(vecs) == 0 {
		panic("fl: WeightedAverage of nothing")
	}
	if len(vecs) != len(weights) {
		panic(fmt.Sprintf("fl: %d vectors but %d weights", len(vecs), len(weights)))
	}
	dim := len(vecs[0])
	if len(dst) != dim {
		panic(fmt.Sprintf("fl: aggregation buffer length %d, want %d", len(dst), dim))
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("fl: negative weight %v", w))
		}
		if len(vecs[i]) != dim {
			panic(fmt.Sprintf("fl: vector %d has length %d, want %d", i, len(vecs[i]), dim))
		}
		if dim > 0 && overlaps(dst, vecs[i]) {
			panic(fmt.Sprintf("fl: aggregation buffer aliases input vector %d", i))
		}
		total += w
	}
	if total <= 0 {
		panic("fl: total weight must be positive")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, v := range vecs {
		scale := weights[i] / total
		for j, x := range v {
			dst[j] += scale * x
		}
	}
	return dst
}

// overlaps reports whether two non-empty slices share any backing
// elements. Arena sub-slicing makes partially overlapping views easy to
// construct by accident, so the guard checks ranges, not just heads.
func overlaps(a, b []float64) bool {
	aLo := uintptr(unsafe.Pointer(&a[0]))
	aHi := uintptr(unsafe.Pointer(&a[len(a)-1]))
	bLo := uintptr(unsafe.Pointer(&b[0]))
	bHi := uintptr(unsafe.Pointer(&b[len(b)-1]))
	return aLo <= bHi && bLo <= aHi
}

// DeltaInto writes after - before elementwise (a client's model update)
// into a caller-provided buffer (which may alias `after` but not
// `before`). Returns dst.
func DeltaInto(dst, after, before []float64) []float64 {
	if len(after) != len(before) {
		panic(fmt.Sprintf("fl: Delta length mismatch %d vs %d", len(after), len(before)))
	}
	if len(dst) != len(after) {
		panic(fmt.Sprintf("fl: Delta buffer length %d, want %d", len(dst), len(after)))
	}
	for i := range dst {
		dst[i] = after[i] - before[i]
	}
	return dst
}

// L2Norm returns the Euclidean norm of a vector.
func L2Norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
