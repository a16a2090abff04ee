package nn

import (
	"fmt"
	"strings"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// skipCases are stacks whose first layer with parameters is a
// convolution, a dense layer, and a dense layer behind a parameter-free
// one; each has a second parameter layer deeper in the stack.
var skipCases = []struct {
	name  string
	build func() *Sequential
	first int // index of the first layer with parameters
	inDim int
}{
	{"conv-first", func() *Sequential { return LeNet5(rng.New(31), 2, 8, 8, 3, 0.5) }, 0, 2 * 8 * 8},
	{"dense-first", func() *Sequential { return MLP(rng.New(32), 12, 9, 4) }, 0, 12},
	{"behind-parameter-free", func() *Sequential {
		r := rng.New(33)
		return HeInit(NewSequential(NewReLU(12), NewDense(12, 7), NewReLU(7), NewDense(7, 3)), r)
	}, 1, 12},
}

// TestFirstLayerSkipsOnlyInputGrad: what a Sequential leaves out is the
// one input gradient nobody reads and nothing else. Every parameter
// gradient after net.Backward is bit-equal to running the same layers'
// Backward by hand on an unmarked twin with nothing skipped; in the
// marked network only the first layer with parameters returns nil, and
// every deeper Conv2D / Dense still returns its full input gradient.
func TestFirstLayerSkipsOnlyInputGrad(t *testing.T) {
	bothTypes(t, testFirstLayerSkipsOnlyInputGrad[float64], testFirstLayerSkipsOnlyInputGrad[float32])
}

func testFirstLayerSkipsOnlyInputGrad[T tensor.Float](t *testing.T) {
	for _, tc := range skipCases {
		t.Run(tc.name, func(t *testing.T) {
			x := tensorOf[T](randInput(rng.New(34), 5, tc.inDim))
			labels := []int{0, 1, 2, 0, 1}

			net := netOf[T](t, tc.build())
			if net.first != tc.first {
				t.Fatalf("first layer with parameters = %d, want %d", net.first, tc.first)
			}
			var ce SoftmaxCEOf[T]
			zeroGrads(net)
			_, grad, _ := ce.Loss(net.Forward(x, true), labels)
			net.Backward(grad)
			got := flatGrads(net)

			// The twin's layers are as a caller of the bare Layer API
			// holds them: no Sequential told them anything.
			twin := netOf[T](t, tc.build())
			for _, l := range twin.Layers {
				switch l := l.(type) {
				case *DenseOf[T]:
					l.noGx = false
				case *Conv2DOf[T]:
					l.noGx = false
				}
			}
			byHand := func(net *SequentialOf[T]) []*tensor.Of[T] {
				var ce SoftmaxCEOf[T]
				zeroGrads(net)
				h := x
				for _, l := range net.Layers {
					h = l.Forward(h, true)
				}
				_, g, _ := ce.Loss(h, labels)
				gx := make([]*tensor.Of[T], len(net.Layers))
				for i := len(net.Layers) - 1; i >= 0 && g != nil; i-- {
					g = net.Layers[i].Backward(g)
					gx[i] = g
				}
				return gx
			}
			full := byHand(twin)
			want := flatGrads(twin)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("parameter gradient %d = %v, want %v with nothing skipped", i, got[i], want[i])
				}
			}
			if g := full[0]; g == nil || g.Shape[0] != 5 || g.Shape[1] != tc.inDim {
				t.Fatalf("unmarked stack: input gradient %v, want a (5, %d) tensor", g, tc.inDim)
			}

			marked := byHand(net)
			for i, g := range marked {
				switch {
				case i == tc.first && g != nil:
					t.Fatalf("layer %d (%s) is the first with parameters but returned an input gradient", i, net.Layers[i].Name())
				case i > tc.first && g == nil:
					t.Fatalf("layer %d (%s) lost its input gradient", i, net.Layers[i].Name())
				case i > tc.first:
					for j, v := range full[i].Data {
						if g.Data[j] != v {
							t.Fatalf("layer %d (%s): input gradient %d = %v, want %v", i, net.Layers[i].Name(), j, g.Data[j], v)
						}
					}
				}
			}
		})
	}
}

// TestInnerLayerKeepsInputGrad: a Conv2D or Dense behind another layer
// with parameters returns its input gradient.
func TestInnerLayerKeepsInputGrad(t *testing.T) {
	r := rng.New(35)
	g := tensor.ConvGeom{InC: 2, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 1}
	for _, l := range []Layer[float64]{NewConv2D(g, 3), NewDense(2*6*6, 4)} {
		HeInit(NewSequential(NewDense(1, 2*6*6), l), r)
		l.Forward(randInput(r, 3, 2*6*6), true)
		gx := l.Backward(randInput(r, 3, l.OutDim()))
		if gx == nil || gx.Shape[0] != 3 || gx.Shape[1] != 2*6*6 {
			t.Fatalf("%s: inner Backward returned %v, want a (3, 72) input gradient", l.Name(), gx)
		}
	}
}

// TestBackwardChecksBatch: every layer kind rejects a gradOut whose row
// count is not the batch its Forward cached, with a message naming the
// layer — fewer rows used to die as a bare slice-bounds panic inside the
// loop (or index a stale mask), more rows were silently truncated.
func TestBackwardChecksBatch(t *testing.T) {
	r := rng.New(36)
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	layers := []struct {
		l     Layer[float64]
		inDim int
	}{
		{alone(NewDense(16, 5)), 16},
		{alone(NewConv2D(g, 2)), 16},
		{NewMaxPool2(1, 4, 4), 16},
		{NewReLU(16), 16},
	}
	for _, tc := range layers {
		for _, rows := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/%d-rows", tc.l.Name(), rows), func(t *testing.T) {
				tc.l.Forward(randInput(r, 3, tc.inDim), true)
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, tc.l.Name()+" backward") || !strings.Contains(msg, "batch of 3") {
						t.Fatalf("Backward with %d rows after a batch of 3: got %q, want a panic naming the layer and the batch", rows, msg)
					}
				}()
				tc.l.Backward(randInput(r, rows, tc.l.OutDim()))
			})
		}
	}
}

// TestBackwardBeforeForwardPanics: every layer kind, in both dtypes,
// refuses a Backward with no Forward cached, naming itself — none may
// read an empty cache as a zero-row batch.
func TestBackwardBeforeForwardPanics(t *testing.T) {
	bothTypes(t, testBackwardBeforeForwardPanics[float64], testBackwardBeforeForwardPanics[float32])
}

func testBackwardBeforeForwardPanics[T tensor.Float](t *testing.T) {
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	for _, tc := range []struct {
		l    Layer[float64]
		kind string
	}{
		{NewDense(16, 5), "Dense"},
		{NewConv2D(g, 2), "Conv2D"},
		{NewMaxPool2(1, 4, 4), "MaxPool2"},
		{NewReLU(16), "ReLU"},
	} {
		l := netOf[T](t, NewSequential(tc.l)).Layers[0]
		t.Run(tc.kind, func(t *testing.T) {
			defer func() {
				want := "nn: " + tc.kind + ".Backward called before Forward"
				if msg := fmt.Sprint(recover()); msg != want {
					t.Fatalf("Backward before Forward: got %q, want %q", msg, want)
				}
			}()
			l.Backward(tensor.NewOf[T](1, l.OutDim()))
		})
	}
}

// TestWorkspaceOneHeaderInPlace is the ws contract: one tensor, reshaped
// in place over storage that only ever grows, so no sequence of shapes —
// however many distinct ones — allocates once the largest has been seen.
func TestWorkspaceOneHeaderInPlace(t *testing.T) {
	var w ws[float32]
	a := w.get(4, 3)
	if len(a.Shape) != 2 || a.Shape[0] != 4 || a.Shape[1] != 3 || len(a.Data) != 12 {
		t.Fatalf("get(4, 3) = shape %v, %d elements", a.Shape, len(a.Data))
	}
	big := w.get(8, 8)
	if big != a {
		t.Fatal("a second get returned a second header")
	}
	if a.Shape[0] != 8 || a.Shape[1] != 8 || len(a.Data) != 64 {
		t.Fatalf("earlier result did not follow the reshape: shape %v, %d elements", a.Shape, len(a.Data))
	}
	store := &big.Data[0]
	for _, s := range [][2]int{{4, 3}, {1, 64}, {7, 9}, {2, 5}, {3, 3}, {8, 8}, {5, 1}} {
		h := w.get(s[0], s[1])
		if h != a || &h.Data[0] != store {
			t.Fatalf("get(%d, %d) left the one header or its storage", s[0], s[1])
		}
		if h.Shape[0] != s[0] || h.Shape[1] != s[1] || len(h.Data) != s[0]*s[1] || cap(h.Data) != len(h.Data) {
			t.Fatalf("get(%d, %d) = shape %v, len %d, cap %d", s[0], s[1], h.Shape, len(h.Data), cap(h.Data))
		}
	}
}
