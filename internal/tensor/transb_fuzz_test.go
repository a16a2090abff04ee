package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fedclust/internal/rng"
)

// FuzzTransBForms: every form of the a·bᵀ tile equals its Go body in
// both dtypes, on bits, a NaN matching any NaN — b packed with a's rows
// broadcast (whole row groups, the Go body for the rest); when b has at
// least four rows, a packed with b's rows broadcast and each tile stored
// transposed; and the offset form, a convolution whose rows are read in
// place in a padded batch through the tap offsets and stored
// channel-major (checkOffsetForm). The input's first four bytes give m, n
// (1–24) and k (1–transBPanelK) of the product and, through fuzzGeom, the
// convolution's geometry and batch, with n output channels; the rest are
// the operands' raw float32 bits, four bytes each, tiled over a then b —
// over the convolution's images, then its weights, then its bias (float64
// takes the same values widened, ±0, ±Inf, NaN and float32's subnormals
// included). The checked-in corpus (testdata/fuzz/FuzzTransBForms) holds
// signed zeros against ±Inf and NaN on either side, a non-finite b-row
// after a group's first, float32 subnormals, products that overflow, k at
// the panel bound, and convolutions with Pad ≥ KW, strides 2 and 3 and
// kernels wider than the image whose zero taps meet non-finite weights
// and whose non-finite taps meet zero weights.
func FuzzTransBForms(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if !UseASM() || len(data) < 4 {
			return
		}
		m, n := 1+int(data[0])%24, 1+int(data[1])%24
		k := 1 + int(binary.LittleEndian.Uint16(data[2:]))%transBPanelK
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
		f64 := func(i int) float64 { return float64(f32(i)) }
		checkTransBForms(t, m, k, n, f64)
		checkTransBForms(t, m, k, n, f32)
		g, batch := fuzzGeom([4]byte(data))
		seed := binary.LittleEndian.Uint32(data)
		checkConvForm(t, rng.New(uint64(seed)), g, batch, n, f64)
		checkConvForm(t, rng.New(uint64(seed)), g, batch, n, f32)
	})
}

// fuzzGeom derives a convolution and its batch from the fuzz input's
// header: InC 1–3, InH, InW 1–7, KH, KW 1–6, Stride 1–3, Pad 0–7 (raised
// where the kernel would not fit the padded image), batch 1–3.
func fuzzGeom(h [4]byte) (ConvGeom, int) {
	g := ConvGeom{
		InC: 1 + int(h[0])%3, InH: 1 + int(h[0]/3)%7,
		InW: 1 + int(h[2])%7, KH: 1 + int(h[2]/7)%6,
		KW: 1 + int(h[3])%6, Stride: 1 + int(h[3]/6)%3, Pad: int(h[3]/18) % 8,
	}
	g.Pad = max(g.Pad, (g.KH-g.InH+1)/2, (g.KW-g.InW+1)/2)
	return g, 1 + int(h[0]/21)%3
}

// checkConvForm fills the batch's images, then the n × InC·KH·KW
// weights, then the n biases with value(0), value(1), … and holds the
// offset form to the Go offset body (checkOffsetForm).
func checkConvForm[T Float](t *testing.T, r *rng.Rng, g ConvGeom, batch, n int, value func(i int) T) {
	x := make([]T, batch*g.InC*g.InH*g.InW)
	w := NewOf[T](n, g.InC*g.KH*g.KW)
	bias := make([]T, n)
	i := 0
	for _, v := range [][]T{x, w.Data, bias} {
		for j := range v {
			v[j], i = value(i), i+1
		}
	}
	checkOffsetForm(t, r, fmt.Sprintf("%+v batch %d n %d", g, batch, n), g, x, w, bias)
}

// checkTransBForms fills a (m×k) then b (n×k) with value(0), value(1), …
// and runs both tile forms against matmulTransBRowsGo.
func checkTransBForms[T Float](t *testing.T, m, k, n int, value func(i int) T) {
	a, b := NewOf[T](m, k), NewOf[T](n, k)
	for i := range a.Data {
		a.Data[i] = value(i)
	}
	for i := range b.Data {
		b.Data[i] = value(len(a.Data) + i)
	}
	want := NewOf[T](m, n)
	matmulTransBRowsGo(want, a, b, 0, m)
	type form struct {
		name string
		got  *Of[T]
	}
	packB := form{"pack b", NewOf[T](m, n)}
	transBTiles(packB.got.Data, a.Data, b.Data, k, n, 0, m&^3)
	matmulTransBRowsGo(packB.got, a, b, m&^3, m)
	forms := []form{packB}
	if n >= 4 {
		packA := form{"pack a", NewOf[T](m, n)}
		transBTilesPackA(packA.got.Data, a.Data, b.Data, k, n, 0, m)
		forms = append(forms, packA)
	}
	for _, f := range forms {
		for i, w := range want.Data {
			if g := f.got.Data[i]; !sameBits(g, w) {
				t.Fatalf("m %d k %d n %d, %s: dst[%d,%d] = %v (%#x), Go body %v (%#x)",
					m, k, n, f.name, i/n, i%n, g, bitsOf(g), w, bitsOf(w))
			}
		}
	}
}

// FuzzConvBackward: the backward convolution read in place — the weight
// gradient from the padded batch through the run offsets, coefficients
// listed from the channel-major gradient (ConvWeightGrad.AddInto), and
// the input gradient from the channel-major gradient (ConvInputGradInto)
// — equals the unrolled products it replaced, MatMulTransAAddInto(gw, gy,
// unroll) and col2im of MatMulInto(gy, W) on the pixel-major gy, in both
// dtypes, on bits, a NaN matching any NaN; and on AVX2 hosts the
// assembly path equals the Go body. The header gives the geometry and
// batch (fuzzGeom) and, through its second byte, 1–24 output channels;
// the rest are raw float32 bits, four bytes each, tiled over the images,
// then the output gradient, then gw's starting values, then W (float64
// takes them widened). The checked-in corpus
// (testdata/fuzz/FuzzConvBackward) holds ±0 coefficients against ±Inf and
// NaN taps, −0 coefficients onto −0 gradients against taps of either
// sign, a LeNet-like sparse gradient at KW 5 < eight float32 lanes with
// one input channel, strides 2 and 3 and Pad ≥ KW.
func FuzzConvBackward(f *testing.F) {
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
		g, batch := fuzzGeom([4]byte(data))
		n := 1 + int(data[1])%24
		checkConvBackward(t, g, batch, n, func(i int) float64 { return float64(f32(i)) })
		checkConvBackward(t, g, batch, n, f32)
	})
}

// checkConvBackward fills the batch's images, its output gradient, gw's
// starting values and W with value(0), value(1), … and holds the
// backward's in-place forms to the unrolled products, on the kernel path
// the host runs and, on AVX2 hosts, on the Go bodies too.
func checkConvBackward[T Float](t *testing.T, g ConvGeom, batch, n int, value func(i int) T) {
	outHW, rowLen, imgLen := g.OutH()*g.OutW(), g.InC*g.KH*g.KW, g.InC*g.InH*g.InW
	x, gradOut := make([]T, batch*imgLen), make([]T, batch*n*outHW)
	gw0, w := NewOf[T](n, rowLen), NewOf[T](n, rowLen)
	i := 0
	for _, v := range [][]T{x, gradOut, gw0.Data, w.Data} {
		for j := range v {
			v[j], i = value(i), i+1
		}
	}
	padded := make([]T, batch*g.PaddedLen())
	PadInto(x, g, padded)
	unroll, gy := NewOf[T](batch*outHW, rowLen), NewOf[T](batch*outHW, n)
	Im2ColRowsInto(padded, g, 0, unroll.Data)
	for r := range batch * outHW {
		for ch := range n {
			gy.Data[r*n+ch] = gradOut[(r/outHW*n+ch)*outHW+r%outHW]
		}
	}
	wantGw, wantGx := gw0.Clone(), make([]T, len(x))
	MatMulTransAAddInto(wantGw, gy, unroll)
	MatMulInto(unroll, gy, w)
	Col2ImRowsInto(unroll.Data, g, 0, wantGx)
	name := fmt.Sprintf("%+v batch %d n %d", g, batch, n)
	paths := []bool{false}
	if UseASM() {
		paths = append(paths, true)
	}
	for _, asm := range paths {
		old := SetUseASM(asm)
		gw, gx := gw0.Clone(), make([]T, len(x))
		var wg ConvWeightGrad[T]
		wg.AddInto(gw, padded, gradOut, g)
		ConvInputGradInto(gx, make([]T, outHW*rowLen), gradOut, w, g)
		SetUseASM(old)
		for what, pair := range map[string][2][]T{"gW": {gw.Data, wantGw.Data}, "gx": {gx, wantGx}} {
			for j, want := range pair[1] {
				if got := pair[0][j]; !sameBits(got, want) {
					t.Fatalf("%s, asm %v: %s[%d] = %v (%#x), unrolled product %v (%#x)",
						name, asm, what, j, got, bitsOf(got), want, bitsOf(want))
				}
			}
		}
	}
}
