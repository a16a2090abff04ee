package tensor_test

// The LeNet block — Conv2D → ReLU → MaxPool2 run as one pass by
// nn.Sequential, its forward TransBPanel.ConvPoolInto — against the three
// layers run one by one, on both kernel paths. The file lives in package
// tensor's directory for the kernel-path switch; nn's
// TestLeNetBlockMatchesLayers holds the block's argmax, its routed
// gradient and its input gradient on the host's path, and every
// difference between the paths lies in the product these tests cover.

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// blockGeom decodes a fuzz header into a geometry whose output height
// and width are even and positive, an output channel count (1–9) and a
// batch (1–4): the input grows until both output sides are even.
func blockGeom(h [4]byte) (g tensor.ConvGeom, outC, batch int) {
	g = tensor.ConvGeom{
		InC: 1 + int(h[0])%3, KH: 1 + int(h[0]/3)%3, KW: 1 + int(h[0]/9)%3,
		Stride: 1 + int(h[0]/27)%3, Pad: int(h[3]) % 4,
		InH: 1 + int(h[3]/4)%6, InW: 1 + int(h[3]/24)%6,
	}
	for g.InH+2*g.Pad < g.KH || g.OutH()%2 != 0 {
		g.InH++
	}
	for g.InW+2*g.Pad < g.KW || g.OutW()%2 != 0 {
		g.InW++
	}
	return g, 1 + int(h[1])%9, 1 + int(h[2])%4
}

// checkLeNetBlock fills the batch's images, the weights, the biases and
// the pooled gradient with value(0), value(1), … and, on the kernel path
// the test runs on, holds the block to the three layers:
//   - ConvPoolInto's pooled output and argmax to ConvInto's output taken
//     through ReLU and MaxPool2's rule, and its pooled output without an
//     argmax to the same;
//   - a Sequential's fused Forward and Backward to its layers' own: the
//     pooled output and the weight and bias gradients.
func checkLeNetBlock[T tensor.Float](t *testing.T, g tensor.ConvGeom, outC, batch int, value func(i int) T) {
	t.Helper()
	fused, layered := blockNetOf[T](g, outC), blockNetOf[T](g, outC)
	outHW := g.OutH() * g.OutW()
	x := tensor.NewOf[T](batch, g.InC*g.InH*g.InW)
	grad := tensor.NewOf[T](batch, outC*outHW/4)
	i := 0
	for _, v := range [][]T{x.Data, fused.ParamData(), grad.Data} {
		for j := range v {
			v[j], i = value(i), i+1
		}
	}
	copy(layered.ParamData(), fused.ParamData())
	name := fmt.Sprintf("%+v outC %d batch %d", g, outC, batch)

	w, bias := fused.Params()[0], fused.Params()[1].Data
	padded := make([]T, batch*g.PaddedLen())
	tensor.PadInto(x.Data, g, padded)
	var panel tensor.TransBPanel[T]
	panel.Pack(w)
	y := make([]T, batch*outC*outHW)
	panel.ConvInto(y, padded, g, bias)
	wantPooled, wantArg := poolOracle(y, outC, g.OutH(), g.OutW())
	pooled, arg := make([]T, len(wantPooled)), make([]int, len(wantArg))
	panel.ConvPoolInto(pooled, arg, padded, g, bias)
	sameBitsAll(t, name+": ConvPoolInto's pooled output", pooled, wantPooled)
	for j, a := range wantArg {
		if arg[j] != a {
			t.Fatalf("%s: ConvPoolInto's argmax %d = %d, MaxPool2's rule chose %d", name, j, arg[j], a)
		}
	}
	clear(pooled)
	panel.ConvPoolInto(pooled, nil, padded, g, bias)
	sameBitsAll(t, name+": ConvPoolInto's pooled output without an argmax", pooled, wantPooled)

	out := fused.Forward(x, true)
	h := x
	for _, l := range layered.Layers {
		h = l.Forward(h, true)
	}
	sameBitsAll(t, name+": Sequential's pooled output", out.Data, h.Data)
	fused.Backward(grad)
	g2 := grad
	for i := len(layered.Layers) - 1; i >= 0; i-- {
		g2 = layered.Layers[i].Backward(g2)
	}
	sameBitsAll(t, name+": gW and gB", fused.GradData(), layered.GradData())
}

// blockNetOf builds Conv2D → ReLU → MaxPool2 over g in element type T,
// its parameters zero.
func blockNetOf[T tensor.Float](g tensor.ConvGeom, outC int) *nn.SequentialOf[T] {
	conv := nn.NewConv2D(g, outC)
	net := nn.NewSequential(conv, nn.NewReLU(conv.OutDim()), nn.NewMaxPool2(outC, g.OutH(), g.OutW()))
	if n, ok := any(net).(*nn.SequentialOf[T]); ok {
		return n
	}
	return any(nn.Mirror32(net)).(*nn.SequentialOf[T])
}

// poolOracle is ReLU then MaxPool2 written out over a channel-major
// convolution output: each window's values in the order (0,0), (0,1),
// (1,0), (1,1), relu(v) = v if v > 0 else +0, the first of the largest
// chosen; the argmax is the chosen pixel's index in its image's output.
func poolOracle[T tensor.Float](y []T, c, h, w int) (pooled []T, argmax []int) {
	relu := func(v T) T {
		if v > 0 {
			return v
		}
		return 0
	}
	for img := 0; img < len(y)/(c*h*w); img++ {
		for ch := 0; ch < c; ch++ {
			for oy := 0; oy < h; oy += 2 {
				for ox := 0; ox < w; ox += 2 {
					best := ch*h*w + oy*w + ox
					for _, i := range []int{best + 1, best + w, best + w + 1} {
						if relu(y[img*c*h*w+i]) > relu(y[img*c*h*w+best]) {
							best = i
						}
					}
					pooled, argmax = append(pooled, relu(y[img*c*h*w+best])), append(argmax, best)
				}
			}
		}
	}
	return pooled, argmax
}

// TestLeNetBlockOnBothKernelPaths runs checkLeNetBlock on both kernel
// paths in both dtypes over geometries with Pad ≥ KW, strides 1–3 and
// LeNet-5's two convolutions, 1–9 output channels (every remainder of four
// and eight lanes), batches 1 and 3, and two value sets: small integers,
// where maxima tie and windows are all ≤ 0, and normal draws with ±0,
// ±Inf and NaN.
func TestLeNetBlockOnBothKernelPaths(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		t.Run("float64", testLeNetBlockOnBothKernelPaths[float64])
		t.Run("float32", testLeNetBlockOnBothKernelPaths[float32])
	})
}

func testLeNetBlockOnBothKernelPaths[T tensor.Float](t *testing.T) {
	geoms := []tensor.ConvGeom{
		{InC: 2, InH: 4, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 3},
		{InC: 1, InH: 7, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 2, InH: 10, InW: 10, KH: 3, KW: 3, Stride: 3, Pad: 1},
		{InC: 1, InH: 16, InW: 16, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{InC: 3, InH: 8, InW: 8, KH: 5, KW: 5, Stride: 1, Pad: 0},
	}
	r := rng.New(57)
	for _, g := range geoms {
		for outC := 1; outC <= 9; outC++ {
			for _, batch := range []int{1, 3} {
				vals, ints := make([]T, 4096), make([]T, 4096)
				stripValues(r, vals, true)
				for i := range ints {
					ints[i] = T(r.Intn(5) - 2)
				}
				checkLeNetBlock(t, g, outC, batch, func(i int) T { return vals[i%len(vals)] })
				checkLeNetBlock(t, g, outC, batch, func(i int) T { return ints[i%len(ints)] })
			}
		}
	}
}

// FuzzLeNetBlock runs checkLeNetBlock on arbitrary bits and geometries,
// in both dtypes, on the host's kernel path and, on AVX2 hosts, on the Go
// bodies too. The header's four bytes give the geometry, output channels
// and batch (blockGeom); the rest are raw float32 bits, four bytes each,
// tiled over the images, then the weights and biases, then the pooled
// gradient (float64 takes them widened). The checked-in corpus
// (testdata/fuzz/FuzzLeNetBlock) holds ±0 and NaN sums, ±Inf taps, tied
// window maxima, all-zero and all-negative windows, and Pad ≥ KW.
func FuzzLeNetBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		bits := data[4:]
		f32 := func(i int) float32 {
			var w [4]byte
			for j := range w {
				if len(bits) > 0 {
					w[j] = bits[(4*i+j)%len(bits)]
				}
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(w[:]))
		}
		g, outC, batch := blockGeom([4]byte(data))
		paths := []bool{false}
		if tensor.UseASM() {
			paths = append(paths, true)
		}
		for _, asm := range paths {
			old := tensor.SetUseASM(asm)
			checkLeNetBlock(t, g, outC, batch, func(i int) float64 { return float64(f32(i)) })
			checkLeNetBlock(t, g, outC, batch, f32)
			tensor.SetUseASM(old)
		}
	})
}
