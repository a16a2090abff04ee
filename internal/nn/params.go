package nn

import (
	"fmt"

	"fedclust/internal/tensor"
)

// FlattenParams concatenates every parameter of the network into a single
// []float64 in layer order — the vector representation federated
// aggregation and clustering operate on.
func FlattenParams(s *Sequential) []float64 {
	out := make([]float64, 0, s.NumParams())
	for _, p := range s.Params() {
		out = append(out, p.Data...)
	}
	return out
}

// FlattenParamsInto writes the network's parameters into dst in the same
// layer order as FlattenParams, without allocating. dst must have length
// exactly s.NumParams(). Returns dst.
func FlattenParamsInto[T tensor.Float](s *SequentialOf[T], dst []T) []T {
	if len(dst) != s.NumParams() {
		panic(fmt.Sprintf("nn: FlattenParamsInto length %d, want %d", len(dst), s.NumParams()))
	}
	off := 0
	for _, p := range s.Params() {
		copy(dst[off:off+p.Size()], p.Data)
		off += p.Size()
	}
	return dst
}

// LoadParams copies a flat vector produced by FlattenParams back into the
// network. It panics if the length does not match.
func LoadParams(s *Sequential, vec []float64) {
	if len(vec) != s.NumParams() {
		panic(fmt.Sprintf("nn: LoadParams length %d, want %d", len(vec), s.NumParams()))
	}
	off := 0
	for _, p := range s.Params() {
		copy(p.Data, vec[off:off+p.Size()])
		off += p.Size()
	}
}

// WeightLayers returns the indices (into s.Layers) of layers that carry
// parameters, in order. The paper's "layer k weights" refers to the k-th
// entry of this list (1-based in the paper's figures), and "final layer"
// is the last entry — the classifier.
func WeightLayers(s *Sequential) []int {
	var out []int
	for i, l := range s.Layers {
		if len(l.Params()) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// LayerParamVector returns the flattened parameters of the k-th weight
// layer (0-based index into WeightLayers) — what Fig. 1's layer probes
// compare across clients.
func LayerParamVector(s *Sequential, weightLayerIdx int) []float64 {
	wl := WeightLayers(s)
	if weightLayerIdx < 0 || weightLayerIdx >= len(wl) {
		panic(fmt.Sprintf("nn: weight layer index %d out of range [0,%d)", weightLayerIdx, len(wl)))
	}
	layer := s.Layers[wl[weightLayerIdx]]
	var out []float64
	for _, p := range layer.Params() {
		out = append(out, p.Data...)
	}
	return out
}

// FinalLayerVector returns the flattened parameters of the last weight
// layer — the "strategically selected partial model weights" a FedClust
// client uploads.
func FinalLayerVector(s *Sequential) []float64 {
	wl := WeightLayers(s)
	if len(wl) == 0 {
		panic("nn: network has no weight layers")
	}
	return LayerParamVector(s, len(wl)-1)
}
