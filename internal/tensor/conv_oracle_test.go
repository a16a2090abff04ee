package tensor_test

// Conv2D's in-place forward and backward against the whole-matrix bodies
// they replaced, kept here as the oracle: Forward unrolled the batch into
// one (batch·OutH·OutW) × (InC·KH·KW) cols matrix and took y = cols·Wᵀ in
// one product; Backward de-interleaved gradOut to the pixel-major gy, took
// gW += gyᵀ·cols in one product, then overwrote cols with gcols = gy·W
// and scattered it image by image. The layer must reproduce every bit of
// y, gW, gB and gx on both kernel paths. The file lives in package
// tensor's directory, as f32_golden_test.go does, for the kernel-path
// switch.

import (
	"fmt"
	"math"
	"testing"

	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

func convForwardOracle[T tensor.Float](c *nn.Conv2DOf[T], x *tensor.Of[T]) (out, cols *tensor.Of[T]) {
	batch := x.Shape[0]
	outHW := c.Geom.OutH() * c.Geom.OutW()
	rowLen := c.Geom.InC * c.Geom.KH * c.Geom.KW
	cols = tensor.NewOf[T](batch*outHW, rowLen)
	for b := 0; b < batch; b++ {
		tensor.Im2ColInto(x.Row(b), c.Geom, cols.Data[b*outHW*rowLen:(b+1)*outHW*rowLen])
	}
	y := tensor.NewOf[T](batch*outHW, c.OutC)
	tensor.MatMulTransBInto(y, cols, c.W)
	out = tensor.NewOf[T](batch, c.OutC*outHW)
	for b := 0; b < batch; b++ {
		dst := out.Row(b)
		for p := 0; p < outHW; p++ {
			src := y.Row(b*outHW + p)
			for ch := 0; ch < c.OutC; ch++ {
				dst[ch*outHW+p] = src[ch] + c.B.Data[ch]
			}
		}
	}
	return out, cols
}

// convBackwardOracle accumulates into gw and gb as the layer does into
// its own — gW in one whole-matrix product that goes on from gw's
// current value — and returns the input gradient (nil when noGx).
func convBackwardOracle[T tensor.Float](c *nn.Conv2DOf[T], cols, gradOut, gw, gb *tensor.Of[T], noGx bool) *tensor.Of[T] {
	batch := gradOut.Shape[0]
	outHW := c.Geom.OutH() * c.Geom.OutW()
	rowLen := c.Geom.InC * c.Geom.KH * c.Geom.KW
	gy := tensor.NewOf[T](batch*outHW, c.OutC)
	for b := 0; b < batch; b++ {
		src := gradOut.Row(b)
		for p := 0; p < outHW; p++ {
			dst := gy.Row(b*outHW + p)
			for ch := 0; ch < c.OutC; ch++ {
				dst[ch] = src[ch*outHW+p]
			}
		}
	}
	tensor.MatMulTransAAddInto(gw, gy, cols)
	for i := 0; i < gy.Shape[0]; i++ {
		for ch, v := range gy.Row(i) {
			gb.Data[ch] += v
		}
	}
	if noGx {
		return nil
	}
	tensor.MatMulInto(cols, gy, c.W)
	gx := tensor.NewOf[T](batch, c.InDim())
	for b := 0; b < batch; b++ {
		tensor.Col2ImInto(cols.Data[b*outHW*rowLen:(b+1)*outHW*rowLen], c.Geom, gx.Row(b))
	}
	return gx
}

// convOf builds a Conv2D in element type T through the exported path
// (float32 layers exist only as Mirror32 shadows). As the only layer of a
// Sequential it is the first with parameters, which computes no input
// gradient; behind a Dense it keeps it.
func convOf[T tensor.Float](g tensor.ConvGeom, outC int, noGx bool) *nn.Conv2DOf[T] {
	layers := []nn.Layer[float64]{nn.NewConv2D(g, outC)}
	if !noGx {
		layers = append([]nn.Layer[float64]{nn.NewDense(1, 1)}, layers...)
	}
	net := nn.NewSequential(layers...)
	if n, ok := any(net).(*nn.SequentialOf[T]); ok {
		return n.Layers[len(layers)-1].(*nn.Conv2DOf[T])
	}
	return any(nn.Mirror32(net)).(*nn.SequentialOf[T]).Layers[len(layers)-1].(*nn.Conv2DOf[T])
}

// stripOracleGeoms reach strides 1–3, pad 0 up to beyond the kernel, odd
// and 1×1 outputs, non-square kernels, LeNet-5's two convolutions, and a
// 400-wide row of 80 runs; at batch 3 and 33 the forward's groups of four
// pixels start and end mid output row and cross from image to image.
var stripOracleGeoms = []tensor.ConvGeom{
	{InC: 3, InH: 7, InW: 7, KH: 5, KW: 5, Stride: 1, Pad: 2},
	{InC: 2, InH: 6, InW: 5, KH: 3, KW: 3, Stride: 2, Pad: 1},
	{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 3, Pad: 3},
	{InC: 2, InH: 5, InW: 4, KH: 3, KW: 2, Stride: 3, Pad: 4},
	{InC: 3, InH: 5, InW: 5, KH: 5, KW: 5, Stride: 1, Pad: 0},
	{InC: 2, InH: 9, InW: 7, KH: 2, KW: 4, Stride: 2, Pad: 0},
	{InC: 3, InH: 16, InW: 16, KH: 5, KW: 5, Stride: 1, Pad: 2},
	{InC: 3, InH: 8, InW: 8, KH: 5, KW: 5, Stride: 1, Pad: 0},
	{InC: 16, InH: 6, InW: 6, KH: 5, KW: 5, Stride: 1, Pad: 1},
}

// stripValues fills v with normal draws, one in six of them ±0 (so the
// skip-zero rule decides terms) and, when nonFinite, about one in
// five hundred +Inf, −Inf or NaN.
func stripValues[T tensor.Float](r *rng.Rng, v []T, nonFinite bool) {
	for i := range v {
		switch c := r.Intn(3000); {
		case c < 250:
			v[i] = 0
		case c < 500:
			v[i] = T(math.Copysign(0, -1))
		case nonFinite && c < 506:
			v[i] = T([...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[c%3])
		default:
			v[i] = T(r.NormFloat64())
		}
	}
}

// bitsOf is v's IEEE-754 encoding in its own width.
func bitsOf[T tensor.Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// sameBitsAll fails on the first element whose encoding differs.
func sameBitsAll[T tensor.Float](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, oracle %d", what, len(got), len(want))
	}
	for i, w := range want {
		if bitsOf(got[i]) != bitsOf(w) {
			t.Fatalf("%s: element %d = %v (bits %#x), oracle %v (bits %#x)", what, i, got[i], bitsOf(got[i]), w, bitsOf(w))
		}
	}
}

// TestConv2DStripsMatchWholeMatrixOracle: Forward's output and Backward's
// weight, bias and input gradients — accumulated onto non-zero gradients,
// the first-layer case without an input gradient included — equal the
// whole-matrix oracle's bit for bit, in both dtypes on both kernel paths,
// over every geometry at batch 1, 3 and 33, with ±0, ±Inf and NaN in x and
// W.
func TestConv2DStripsMatchWholeMatrixOracle(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		t.Run("float64", testConv2DStripsMatchWholeMatrixOracle[float64])
		t.Run("float32", testConv2DStripsMatchWholeMatrixOracle[float32])
	})
}

func testConv2DStripsMatchWholeMatrixOracle[T tensor.Float](t *testing.T) {
	r := rng.New(41)
	for gi, g := range stripOracleGeoms {
		for _, outC := range []int{3, 5, 8} {
			for _, batch := range []int{1, 3, 33} {
				for _, noGx := range []bool{false, true} {
					name := fmt.Sprintf("geometry %d %+v outC %d batch %d noGx %v", gi, g, outC, batch, noGx)
					c := convOf[T](g, outC, noGx)
					gw, gb := c.Grads()[0], c.Grads()[1]
					stripValues(r, c.W.Data, true)
					stripValues(r, c.B.Data, false)
					stripValues(r, gw.Data, false)
					stripValues(r, gb.Data, false)
					x := tensor.NewOf[T](batch, c.InDim())
					stripValues(r, x.Data, true)
					gradOut := tensor.NewOf[T](batch, c.OutDim())
					stripValues(r, gradOut.Data, false)
					wantGw, wantGb := gw.Clone(), gb.Clone()

					wantOut, cols := convForwardOracle(c, x)
					wantGx := convBackwardOracle(c, cols, gradOut, wantGw, wantGb, noGx)

					sameBitsAll(t, name+": y", c.Forward(x, true).Data, wantOut.Data)
					gx := c.Backward(gradOut)
					sameBitsAll(t, name+": gW", gw.Data, wantGw.Data)
					sameBitsAll(t, name+": gB", gb.Data, wantGb.Data)
					if noGx {
						if gx != nil {
							t.Fatalf("%s: Backward returned an input gradient nobody reads", name)
						}
						continue
					}
					sameBitsAll(t, name+": gx", gx.Data, wantGx.Data)
				}
			}
		}
	}
}
