package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// blockGeoms have even outputs, so every pool window lies in one image
// row pair: strides 1–3, Pad ≥ KW, non-square and 1-wide kernels, and
// LeNet-5's two convolutions on 1×16×16 inputs.
var blockGeoms = []tensor.ConvGeom{
	{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
	{InC: 2, InH: 4, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 3},
	{InC: 3, InH: 5, InW: 5, KH: 2, KW: 2, Stride: 1, Pad: 0},
	{InC: 1, InH: 7, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 1},
	{InC: 2, InH: 10, InW: 10, KH: 3, KW: 3, Stride: 3, Pad: 1},
	{InC: 2, InH: 2, InW: 3, KH: 1, KW: 2, Stride: 1, Pad: 0},
	{InC: 1, InH: 16, InW: 16, KH: 5, KW: 5, Stride: 1, Pad: 2},
	{InC: 3, InH: 8, InW: 8, KH: 5, KW: 5, Stride: 1, Pad: 0},
}

// blockNet builds Conv2D → ReLU → MaxPool2 over g in element type T, its
// convolution computing its input gradient as an inner layer's does.
func blockNet[T tensor.Float](t *testing.T, g tensor.ConvGeom, outC int) (*SequentialOf[T], *Conv2DOf[T], *ReLU[T], *MaxPool2[T]) {
	t.Helper()
	conv := NewConv2D(g, outC)
	net := netOf[T](t, NewSequential(conv, NewReLU(conv.OutDim()), NewMaxPool2(outC, g.OutH(), g.OutW())))
	c, r, p := net.Layers[0].(*Conv2DOf[T]), net.Layers[1].(*ReLU[T]), net.Layers[2].(*MaxPool2[T])
	c.noGx = false
	return net, c, r, p
}

// blockValues fills v from one of two value sets. ties draws small
// integers, so window maxima tie, windows go all-negative (ReLU's +0
// four times) and sums land exactly on zero; otherwise normal draws with
// ±0 and, in about one in a hundred, ±Inf and NaN.
func blockValues[T tensor.Float](r *rng.Rng, v []T, ties bool) {
	for i := range v {
		if ties {
			v[i] = T(r.Intn(5) - 2)
			continue
		}
		switch c := r.Intn(600); {
		case c < 60:
			v[i] = 0
		case c < 120:
			v[i] = T(math.Copysign(0, -1))
		case c < 126:
			v[i] = T([...]float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8_0000_0000_0001), 1, -1}[c%6])
		default:
			v[i] = T(r.NormFloat64())
		}
	}
}

// sameBits fails on the first element whose encoding differs.
func sameBits[T tensor.Float](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		if bitsOf(got[i]) != bitsOf(w) {
			t.Fatalf("%s: element %d = %v (bits %#x), the three layers %v (bits %#x)", what, i, got[i], bitsOf(got[i]), w, bitsOf(w))
		}
	}
}

// TestLeNetBlockMatchesLayers: a Sequential's Conv2D → ReLU → MaxPool2
// block, run as one pass, reproduces the three layers run one by one, bit
// for bit in both dtypes: the pooled output, the argmax, the
// convolution's gradOut (ReLU's input gradient), the weight and bias
// gradients accumulated onto non-zero ones, and the input gradient. Over
// every blockGeoms geometry, 1–9 output channels (every remainder of four
// and eight lanes), batches 1, 3 and 7, and two value sets: small
// integers, where maxima tie and windows are all ≤ 0, and normal draws
// with ±0, ±Inf and NaN in the input, weights and gradient. The host's
// kernel path runs; tensor's TestLeNetBlockOnBothKernelPaths holds the
// other.
func TestLeNetBlockMatchesLayers(t *testing.T) {
	bothTypes(t, testLeNetBlockMatchesLayers[float64], testLeNetBlockMatchesLayers[float32])
}

func testLeNetBlockMatchesLayers[T tensor.Float](t *testing.T) {
	r := rng.New(55)
	for gi, g := range blockGeoms {
		for outC := 1; outC <= 9; outC++ {
			for _, batch := range []int{1, 3, 7} {
				for _, ties := range []bool{true, false} {
					name := fmt.Sprintf("geometry %d %+v outC %d batch %d ties %v", gi, g, outC, batch, ties)
					fused, fc, _, fp := blockNet[T](t, g, outC)
					layered, lc, lr, lp := blockNet[T](t, g, outC)
					if len(fused.blocks) != 1 {
						t.Fatalf("%s: %d blocks recognised, want 1", name, len(fused.blocks))
					}
					blockValues(r, fused.ParamData(), ties)
					blockValues(r, fused.GradData(), false)
					copy(layered.ParamData(), fused.ParamData())
					copy(layered.GradData(), fused.GradData())
					x := tensor.NewOf[T](batch, fc.InDim())
					blockValues(r, x.Data, ties)
					g := tensor.NewOf[T](batch, fp.OutDim())
					blockValues(r, g.Data, false)

					b := &fused.blocks[0]
					out := b.forward(x, true)
					want := lp.Forward(lr.Forward(lc.Forward(x, true), true), true)
					sameBits(t, name+": pooled output", out.Data, want.Data)
					for i, a := range lp.argmax[:len(out.Data)] {
						if fp.argmax[i] != a {
							t.Fatalf("%s: argmax %d = %d, MaxPool2 chose %d", name, i, fp.argmax[i], a)
						}
					}
					gx := b.backward(g)
					wantGx := lc.Backward(lr.Backward(lp.Backward(g)))
					sameBits(t, name+": convolution's gradOut", fp.gx.hdr.Data, lr.gx.hdr.Data)
					sameBits(t, name+": gW and gB", fused.GradData(), layered.GradData())
					sameBits(t, name+": input gradient", gx.Data, wantGx.Data)
				}
			}
		}
	}
}

// TestLeNetBlockForwardOnlyWritesNoArgmax: a forward-only pass of the
// block writes the pooled output and nothing Backward reads — no argmax
// is allocated — and a Backward after one is refused, also when a
// training pass came before it.
func TestLeNetBlockForwardOnlyWritesNoArgmax(t *testing.T) {
	bothTypes(t, testLeNetBlockForwardOnlyWritesNoArgmax[float64], testLeNetBlockForwardOnlyWritesNoArgmax[float32])
}

func testLeNetBlockForwardOnlyWritesNoArgmax[T tensor.Float](t *testing.T) {
	g := blockGeoms[0]
	net, c, _, p := blockNet[T](t, g, 3)
	x := tensorOf[T](randInput(rng.New(56), 4, c.InDim()))
	net.Forward(x, false)
	if p.argmax != nil || p.batch != 0 {
		t.Fatalf("forward-only pass: argmax of %d elements, batch %d; want none", len(p.argmax), p.batch)
	}
	grad := tensor.NewOf[T](4, p.OutDim())
	for _, train := range []bool{false, true} {
		if train {
			net.Forward(x, true)
			net.Forward(x, false)
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "MaxPool2.Backward called before Forward") {
					t.Fatalf("Backward after a forward-only pass (trained before: %v): %q, want a refusal", train, msg)
				}
			}()
			net.Backward(grad)
		}()
	}
}

// TestSequentialFindsLeNetBlocks: construction recognises exactly the
// Conv2D → ReLU → MaxPool2 runs whose shapes chain, in both dtypes.
func TestSequentialFindsLeNetBlocks(t *testing.T) {
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := func() *Conv2D { return NewConv2D(g, 2) }
	for _, tc := range []struct {
		name string
		net  *Sequential
		at   []int
	}{
		{"LeNet-5", LeNet5(rng.New(1), 1, 16, 16, 10, 0.5), []int{0, 3}},
		{"MLP", MLP(rng.New(1), 4, 8, 3), nil},
		{"conv → relu → dense", NewSequential(conv(), NewReLU(32), NewDense(32, 2)), nil},
		{"conv → pool → relu", NewSequential(conv(), NewMaxPool2(2, 4, 4), NewReLU(8)), nil},
		{"a ReLU of another width", NewSequential(NewConv2D(g, 2), NewReLU(16), NewMaxPool2(1, 4, 4)), nil},
	} {
		for _, blocks := range [][]int{blockStarts(tc.net.blocks), blockStarts(Mirror32(tc.net).blocks)} {
			if fmt.Sprint(blocks) != fmt.Sprint(tc.at) {
				t.Errorf("%s: blocks at %v, want %v", tc.name, blocks, tc.at)
			}
		}
	}
}

func blockStarts[T tensor.Float](blocks []convBlock[T]) []int {
	var at []int
	for _, b := range blocks {
		at = append(at, b.at)
	}
	return at
}
