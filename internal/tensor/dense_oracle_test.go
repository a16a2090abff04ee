package tensor_test

// Dense's Forward and Backward against the bodies they replaced, kept
// here as the oracle: Forward took y = x·Wᵀ with W packed on every call
// (today's Go body is that product's specification), Backward took
// gwTmp = gyᵀ·x from zero and added it into gW in a second pass. The
// layer must reproduce every bit of y, gW, gB and gx on both kernel paths
// whenever gW starts at +0, as it does in every training step. The file
// lives in package tensor's directory, as conv_oracle_test.go does, for
// the kernel-path switch.

import (
	"fmt"
	"math"
	"testing"

	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

func denseForwardOracle[T tensor.Float](d *nn.DenseOf[T], x *tensor.Of[T]) *tensor.Of[T] {
	batch := x.Shape[0]
	y := tensor.NewOf[T](batch, d.Out)
	goBody(func() { tensor.MatMulTransBInto(y, x, d.W) })
	for i := 0; i < batch; i++ {
		row := y.Row(i)
		for j := range row {
			row[j] += d.B.Data[j]
		}
	}
	return y
}

// denseBackwardOracle accumulates into gw and gb as the layer did into
// its own, and returns the input gradient (nil when noGx).
func denseBackwardOracle[T tensor.Float](d *nn.DenseOf[T], x, gradOut, gw, gb *tensor.Of[T], noGx bool) *tensor.Of[T] {
	gwTmp := tensor.NewOf[T](d.Out, d.In)
	goBody(func() { tensor.MatMulTransAInto(gwTmp, gradOut, x) })
	for i, v := range gwTmp.Data {
		gw.Data[i] += T(1 * v)
	}
	batch := gradOut.Shape[0]
	for i := 0; i < batch; i++ {
		for j, v := range gradOut.Row(i) {
			gb.Data[j] += v
		}
	}
	if noGx {
		return nil
	}
	gx := tensor.NewOf[T](batch, d.In)
	goBody(func() { tensor.MatMulInto(gx, gradOut, d.W) })
	return gx
}

// goBody runs f on the Go bodies, the products' specification.
func goBody(f func()) {
	defer tensor.SetUseASM(tensor.SetUseASM(false))
	f()
}

// denseOf builds a Dense in element type T through the exported path
// (float32 layers exist only as Mirror32 shadows). As the only layer of a
// Sequential it is the first with parameters, which computes no input
// gradient; behind another Dense it keeps it.
func denseOf[T tensor.Float](in, out int, noGx bool) *nn.DenseOf[T] {
	layers := []nn.Layer[float64]{nn.NewDense(in, out)}
	if !noGx {
		layers = append([]nn.Layer[float64]{nn.NewDense(1, 1)}, layers...)
	}
	net := nn.NewSequential(layers...)
	if n, ok := any(net).(*nn.SequentialOf[T]); ok {
		return n.Layers[len(layers)-1].(*nn.DenseOf[T])
	}
	return any(nn.Mirror32(net)).(*nn.SequentialOf[T]).Layers[len(layers)-1].(*nn.DenseOf[T])
}

// sameBitsOrNaN fails on the first element whose encoding differs, a NaN
// matching any NaN: which of two NaN operands a product returns is the
// one thing the order of its operands shows.
func sameBitsOrNaN[T tensor.Float](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, oracle %d", what, len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; bitsOf(g) != bitsOf(w) && (g == g || w == w) {
			t.Fatalf("%s: element %d = %v (bits %#x), oracle %v (bits %#x)", what, i, g, bitsOf(g), w, bitsOf(w))
		}
	}
}

// denseOracleShapes are (In, Out, batch): the float32 MLP's three layers
// at batch 16 (batch < Out packs x, batch ≥ Out packs W), Out not a
// multiple of four against a batch that is not a multiple of either
// lane count on both sides of Out, a batch under one row group, In beyond
// the tile's panel bound, and a batch with rows left over after its last
// group of four.
var denseOracleShapes = [][3]int{
	{256, 128, 16}, {128, 64, 16}, {64, 8, 16},
	{37, 13, 5}, {37, 13, 11}, {37, 13, 21}, {19, 6, 9}, {10, 30, 7},
	{20, 7, 3}, {300, 10, 6}, {33, 5, 30},
}

// TestDenseMatchesOracle: Forward's output and Backward's weight, bias
// and input gradients — gW from +0 as in every training step, gB onto
// non-zero values, the first-layer case without an input gradient
// included — equal the replaced bodies' on bits (a NaN matching any NaN),
// in both dtypes on both kernel paths, with ±0 in x, W and gy and, in
// every other draw, ±Inf and NaN.
func TestDenseMatchesOracle(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		t.Run("float64", testDenseMatchesOracle[float64])
		t.Run("float32", testDenseMatchesOracle[float32])
	})
}

func testDenseMatchesOracle[T tensor.Float](t *testing.T) {
	r := rng.New(43)
	for _, s := range denseOracleShapes {
		in, out, batch := s[0], s[1], s[2]
		for draw := 0; draw < 4; draw++ {
			noGx, nonFinite := draw%2 == 1, draw >= 2
			d := denseOf[T](in, out, noGx)
			stripValues(r, d.W.Data, nonFinite)
			stripValues(r, d.B.Data, false)
			x := tensor.NewOf[T](batch, in)
			stripValues(r, x.Data, nonFinite)
			gy := tensor.NewOf[T](batch, out)
			stripValues(r, gy.Data, false)
			checkDense(t, fmt.Sprintf("in %d out %d batch %d draw %d", in, out, batch, draw), d, x, gy, noGx, r)
		}
	}
}

// checkDense runs d's Forward and Backward on x and gy and the oracle on
// copies of its gradients, and compares y, gW, gB and gx.
func checkDense[T tensor.Float](t *testing.T, name string, d *nn.DenseOf[T], x, gy *tensor.Of[T], noGx bool, r *rng.Rng) {
	t.Helper()
	gw, gb := d.Grads()[0], d.Grads()[1]
	gw.Zero()
	stripValues(r, gb.Data, false)
	wantGw, wantGb := gw.Clone(), gb.Clone()
	wantY := denseForwardOracle(d, x)
	wantGx := denseBackwardOracle(d, x, gy, wantGw, wantGb, noGx)

	sameBitsOrNaN(t, name+": y", d.Forward(x, true).Data, wantY.Data)
	gx := d.Backward(gy)
	sameBitsOrNaN(t, name+": gW", gw.Data, wantGw.Data)
	sameBitsOrNaN(t, name+": gB", gb.Data, wantGb.Data)
	if noGx {
		if gx != nil {
			t.Fatalf("%s: Backward returned an input gradient nobody reads", name)
		}
		return
	}
	sameBitsOrNaN(t, name+": gx", gx.Data, wantGx.Data)
}

// TestDenseSkipZeroMatchesOracle: the two cases where skipping a zero
// term and adding it differ, on both packing sides of every shape. An
// all-zero x against a W of ±Inf and NaN skips every term, so y is the
// bias exactly (+0 with a zero bias) and gW is +0; a ±Inf/NaN x against
// a zero W adds 0·Inf = NaN, and y's NaNs sit where the oracle's do.
func TestDenseSkipZeroMatchesOracle(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		t.Run("float64", testDenseSkipZeroMatchesOracle[float64])
		t.Run("float32", testDenseSkipZeroMatchesOracle[float32])
	})
}

func testDenseSkipZeroMatchesOracle[T tensor.Float](t *testing.T) {
	r := rng.New(47)
	nonFinite := [...]float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, s := range denseOracleShapes {
		in, out, batch := s[0], s[1], s[2]
		name := fmt.Sprintf("in %d out %d batch %d", in, out, batch)

		d := denseOf[T](in, out, false)
		for i := range d.W.Data {
			d.W.Data[i] = T(nonFinite[i%3])
		}
		d.B.Zero()
		x := tensor.NewOf[T](batch, in)
		for i := range x.Data {
			if i%2 == 1 {
				x.Data[i] = T(math.Copysign(0, -1))
			}
		}
		for i, v := range d.Forward(x, true).Data {
			if bitsOf(v) != 0 {
				t.Fatalf("%s: zero x against non-finite W: y[%d] = %v (bits %#x), want +0", name, i, v, bitsOf(v))
			}
		}
		gy := tensor.NewOf[T](batch, out)
		stripValues(r, gy.Data, false)
		checkDense(t, name+": zero x, non-finite W", d, x, gy, false, r)

		d = denseOf[T](in, out, false)
		d.W.Zero()
		stripValues(r, x.Data, false)
		for i := 0; i < len(x.Data); i += 3 {
			x.Data[i] = T(nonFinite[i%3])
		}
		checkDense(t, name+": non-finite x, zero W", d, x, gy, false, r)
	}
}
