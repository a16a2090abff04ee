package nn

import (
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// Per-layer micro-benchmarks for the training hot path. Forward-only and
// Forward+Backward variants are separate so the backward cost can be read
// off by subtraction; all report allocations because the steady-state
// training step is required to perform none (see alloc_test.go).

// benchLayer times l's Forward (and, when backward, Backward) once per
// compute path, as sub-benchmarks float64 and float32: l itself, and its
// Mirror32 shadow carrying the same randomly initialized weights, so the
// pair stays honest.
func benchLayer(b *testing.B, l Layer[float64], batch, inDim int, backward bool) {
	src := HeInit(NewSequential(l), rng.New(1))
	b.Run("float64", func(b *testing.B) { benchLayerOf[float64](b, src, batch, inDim, backward) })
	b.Run("float32", func(b *testing.B) { benchLayerOf[float32](b, src, batch, inDim, backward) })
}

func benchLayerOf[T tensor.Float](b *testing.B, src *Sequential, batch, inDim int, backward bool) {
	r := rng.New(1)
	net := netOf[T](b, src)
	x := tensorOf[T](randInput(r, batch, inDim))
	gy := tensorOf[T](randInput(r, batch, src.Layers[0].OutDim()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Forward(x, true)
		if backward {
			net.Backward(gy)
		}
	}
}

func benchDense() Layer[float64] { return NewDense(256, 128) }

func benchConv() Layer[float64] {
	g := tensor.ConvGeom{InC: 3, InH: 16, InW: 16, KH: 5, KW: 5, Stride: 1, Pad: 2}
	return NewConv2D(g, 8)
}

func BenchmarkDenseForward(b *testing.B)         { benchLayer(b, benchDense(), 32, 256, false) }
func BenchmarkDenseForwardBackward(b *testing.B) { benchLayer(b, benchDense(), 32, 256, true) }

func BenchmarkConv2DForward(b *testing.B)         { benchLayer(b, benchConv(), 16, 3*16*16, false) }
func BenchmarkConv2DForwardBackward(b *testing.B) { benchLayer(b, benchConv(), 16, 3*16*16, true) }

func BenchmarkReLUForwardBackward(b *testing.B) { benchLayer(b, NewReLU(4096), 32, 4096, true) }

func BenchmarkMaxPool2ForwardBackward(b *testing.B) {
	benchLayer(b, NewMaxPool2(8, 16, 16), 32, 8*16*16, true)
}
