package nn

import (
	"math"

	"fedclust/internal/rng"
)

// HeInit draws every weight matrix of s, in layer order, from He-normal
// (std = sqrt(2/fanIn), fanIn a matrix row's length), leaves the biases
// zero and returns s — the standard initialization for ReLU networks.
func HeInit(s *Sequential, r *rng.Rng) *Sequential {
	for _, w := range s.Params() {
		if len(w.Shape) == 2 {
			std := math.Sqrt(2.0 / float64(w.Shape[1]))
			for i := range w.Data {
				w.Data[i] = std * r.NormFloat64()
			}
		}
	}
	return s
}
