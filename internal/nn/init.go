package nn

import (
	"math"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// HeInit fills w with He-normal values (std = sqrt(2/fanIn)) — the
// standard initialization for ReLU networks.
func HeInit(w *tensor.Tensor, fanIn int, r *rng.Rng) {
	std := math.Sqrt(2.0 / float64(fanIn))
	for i := range w.Data {
		w.Data[i] = std * r.NormFloat64()
	}
}
