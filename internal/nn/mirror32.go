package nn

import (
	"fmt"

	"fedclust/internal/tensor"
)

// The mixed-precision contract (DESIGN.md §10): master weights are
// float64 everywhere; the float32 compute path runs on a float32 network
// built here, loaded with one rounding per scalar (tensor.Convert) and
// read back by exact widening.

// Mirror32 builds the float32 form of a float64 network: the same layer
// kind at every position, with identical hyperparameters and zeroed
// weights — call AssignParams32 to load them. Every layer kind in this
// package has a float32 form; any other kind panics with its name.
func Mirror32(src *Sequential) *SequentialOf[float32] {
	layers := make([]Layer[float32], len(src.Layers))
	for i, l := range src.Layers {
		switch t := l.(type) {
		case *Dense:
			layers[i] = newDense[float32](t.In, t.Out)
		case *Conv2D:
			layers[i] = newConv2D[float32](t.Geom, t.OutC)
		case *ReLU[float64]:
			layers[i] = &ReLU[float32]{dim: t.dim}
		case *MaxPool2[float64]:
			layers[i] = &MaxPool2[float32]{C: t.C, H: t.H, W: t.W}
		default:
			panic(fmt.Sprintf("nn: Mirror32 has no float32 form of layer %d (%s)", i, l.Name()))
		}
	}
	return newSequential(layers)
}

// AssignParams32 loads the float64 network's parameters into its float32
// mirror, rounding each scalar once. The two networks must come from
// Mirror32 (same layer structure); it panics on a parameter count
// mismatch.
func AssignParams32(dst *SequentialOf[float32], src *Sequential) {
	if dst.NumParams() != src.NumParams() {
		panic(fmt.Sprintf("nn: AssignParams32 of %d parameters into %d", src.NumParams(), dst.NumParams()))
	}
	tensor.Convert(dst.ParamData(), src.ParamData())
}
