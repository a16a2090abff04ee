package nn

import (
	"fmt"

	"fedclust/internal/tensor"
)

// The mixed-precision contract (DESIGN.md §10): master weights are
// float64 everywhere; the float32 compute path runs on a shadow network
// built here, loaded with one rounding per scalar (AssignParams32) and
// read back by exact widening (tensor.Convert).

// Mirror32 builds a float32 shadow of a float64 network: the same layer
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

// IsMirror32 reports whether sh is structured as Mirror32(src) would
// build it: the same layer kind with the same hyperparameters at every
// position. Equal parameter sizes are not enough — a ReLU or a pooling
// layer carries no parameters at all. It does not allocate, so a cached
// shadow can be revalidated on every visit.
func IsMirror32(sh *SequentialOf[float32], src *Sequential) bool {
	if len(sh.Layers) != len(src.Layers) {
		return false
	}
	for i, l := range src.Layers {
		if !mirrors(sh.Layers[i], l) {
			return false
		}
	}
	return true
}

// mirrors is IsMirror32 for one layer; its cases are Mirror32's.
func mirrors(m Layer[float32], l Layer[float64]) bool {
	switch t := l.(type) {
	case *Dense:
		m, ok := m.(*DenseOf[float32])
		return ok && m.In == t.In && m.Out == t.Out
	case *Conv2D:
		m, ok := m.(*Conv2DOf[float32])
		return ok && m.Geom == t.Geom && m.OutC == t.OutC
	case *ReLU[float64]:
		m, ok := m.(*ReLU[float32])
		return ok && m.dim == t.dim
	case *MaxPool2[float64]:
		m, ok := m.(*MaxPool2[float32])
		return ok && m.C == t.C && m.H == t.H && m.W == t.W
	}
	return false
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
