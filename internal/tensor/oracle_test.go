package tensor

import (
	"fmt"
	"testing"

	"fedclust/internal/rng"
)

// The per-element unroll and scatter Im2ColInto / Col2ImInto replaced,
// kept as the reference the run-based bodies must match bit for bit:
// four range comparisons per tap, one element per iteration, in the
// (oy, ox, c, ky, kx) order that fixes every image element's addend
// order in col2im.

func im2colOracle[T Float](img []T, g ConvGeom, dst []T) {
	outH, outW := g.OutH(), g.OutW()
	di := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride + ky - g.Pad
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.Stride + kx - g.Pad
						if iy < 0 || iy >= g.InH || ix < 0 || ix >= g.InW {
							dst[di] = 0
						} else {
							dst[di] = img[(c*g.InH+iy)*g.InW+ix]
						}
						di++
					}
				}
			}
		}
	}
}

func col2imOracle[T Float](grad []T, g ConvGeom, img []T) {
	outH, outW := g.OutH(), g.OutW()
	si := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.KH; ky++ {
					iy := oy*g.Stride + ky - g.Pad
					for kx := 0; kx < g.KW; kx++ {
						ix := ox*g.Stride + kx - g.Pad
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							img[(c*g.InH+iy)*g.InW+ix] += grad[si]
						}
						si++
					}
				}
			}
		}
	}
}

// oracleGeoms is a grid that reaches every edge branch of the run
// bodies: no pad, pad below / equal to / beyond the kernel size (whole
// receptive-field rows and columns outside the image), kernels wider
// and taller than the image, strides 1-3, non-square images and
// kernels, one and three channels, and the 1×1 kernel; then kernel
// widths 1…17 — in float32 and float64 together, a run in every move
// width of copyRunsAVX2, 4 to 136 bytes — and rows over a hundred wide.
func oracleGeoms() []ConvGeom {
	var out []ConvGeom
	for _, inC := range []int{1, 3} {
		for _, hw := range [][2]int{{5, 5}, {4, 7}, {6, 3}, {1, 1}, {2, 9}} {
			for _, k := range [][2]int{{1, 1}, {3, 3}, {5, 5}, {2, 4}, {5, 2}} {
				for _, stride := range []int{1, 2, 3} {
					for _, pad := range []int{0, 1, 2, 5, 7} {
						g := ConvGeom{InC: inC, InH: hw[0], InW: hw[1], KH: k[0], KW: k[1], Stride: stride, Pad: pad}
						if (g.InH+2*pad-g.KH) >= 0 && (g.InW+2*pad-g.KW) >= 0 {
							out = append(out, g)
						}
					}
				}
			}
		}
	}
	for kw := 1; kw <= 17; kw++ {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, kw, kw + 2} {
				out = append(out, ConvGeom{InC: 2, InH: 4, InW: 19, KH: 2, KW: kw, Stride: stride, Pad: pad})
			}
		}
	}
	for _, inW := range []int{126, 127} {
		out = append(out,
			ConvGeom{InC: 2, InH: 3, InW: inW, KH: 2, KW: 3, Stride: 1, Pad: 1},
			ConvGeom{InC: 1, InH: 2, InW: inW, KH: 1, KW: 5, Stride: 2, Pad: 1})
	}
	// The shapes the model zoo runs (LeNet-5's two convolutions, VGG's 3×3).
	return append(out,
		ConvGeom{InC: 3, InH: 16, InW: 16, KH: 5, KW: 5, Stride: 1, Pad: 2},
		ConvGeom{InC: 3, InH: 8, InW: 8, KH: 5, KW: 5, Stride: 1, Pad: 0},
		ConvGeom{InC: 2, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1},
	)
}

// randFloats returns n draws as T, none of them zero.
func randFloats[T Float](r *rng.Rng, n int) []T {
	v := make([]T, n)
	for i := range v {
		v[i] = T(r.NormFloat64() + 3)
	}
	return v
}

func firstDiff[T Float](got, want []T) int {
	for i := range want {
		if got[i] != want[i] {
			return i
		}
	}
	return -1
}

// TestIm2ColMatchesOracle holds both unrolls — the Go run loop (gate
// off) and, where the host has it, the strided assembly copy — to the
// per-element oracle.
func TestIm2ColMatchesOracle(t *testing.T) {
	t.Run("float64", onBothKernelPaths(testIm2ColMatchesOracle[float64]))
	t.Run("float32", onBothKernelPaths(testIm2ColMatchesOracle[float32]))
}

func onBothKernelPaths(f func(t *testing.T)) func(t *testing.T) {
	return func(t *testing.T) {
		hasASM := UseASM()
		defer SetUseASM(hasASM)
		for _, asm := range []bool{false, true} {
			if asm && !hasASM {
				continue
			}
			SetUseASM(asm)
			t.Run(fmt.Sprintf("asm=%v", asm), f)
		}
	}
}

func testIm2ColMatchesOracle[T Float](t *testing.T) {
	r := rng.New(21)
	for _, g := range oracleGeoms() {
		img := randFloats[T](r, g.InC*g.InH*g.InW)
		n := g.OutH() * g.OutW() * g.InC * g.KH * g.KW
		// Stale values in dst: every element, padding included, must be written.
		got, want := randFloats[T](r, n), make([]T, n)
		Im2ColInto(img, g, got)
		im2colOracle(img, g, want)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("%+v: cols[%d] = %v, oracle %v", g, i, got[i], want[i])
		}
	}
}

func TestCol2ImMatchesOracle(t *testing.T) {
	t.Run("float64", testCol2ImMatchesOracle[float64])
	t.Run("float32", testCol2ImMatchesOracle[float32])
}

func testCol2ImMatchesOracle[T Float](t *testing.T) {
	r := rng.New(22)
	for _, g := range oracleGeoms() {
		grad := randFloats[T](r, g.OutH()*g.OutW()*g.InC*g.KH*g.KW)
		// Accumulate into a non-zero image: rounding then depends on the
		// order each element receives its addends, which is what is pinned.
		got := randFloats[T](r, g.InC*g.InH*g.InW)
		want := append([]T(nil), got...)
		Col2ImInto(grad, g, got)
		col2imOracle(grad, g, want)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("%+v: img[%d] = %v, oracle %v", g, i, got[i], want[i])
		}
	}
}

// stripCuts splits rows [0, n) into consecutive strips of random length,
// from one row to a little over two images' worth, so strips start and
// end mid output row and cross from one image into the next.
func stripCuts(r *rng.Rng, n, outHW int) [][2]int {
	var cuts [][2]int
	for lo := 0; lo < n; {
		hi := min(n, lo+1+r.Intn(2*outHW+3))
		cuts = append(cuts, [2]int{lo, hi})
		lo = hi
	}
	return cuts
}

// TestIm2ColRowsMatchesOracle: a batch of three images, padded once and
// unrolled strip by strip at random cuts, equals the per-element oracle's
// unrolls of the three stacked, on both unroll paths. The padded buffer
// and dst start stale, so every element of each must be written.
func TestIm2ColRowsMatchesOracle(t *testing.T) {
	t.Run("float64", onBothKernelPaths(testIm2ColRowsMatchesOracle[float64]))
	t.Run("float32", onBothKernelPaths(testIm2ColRowsMatchesOracle[float32]))
}

func testIm2ColRowsMatchesOracle[T Float](t *testing.T) {
	const batch = 3
	r := rng.New(24)
	for _, g := range oracleGeoms() {
		imgLen, outHW, rowLen := g.InC*g.InH*g.InW, g.OutH()*g.OutW(), g.InC*g.KH*g.KW
		x := randFloats[T](r, batch*imgLen)
		want := make([]T, batch*outHW*rowLen)
		for b := 0; b < batch; b++ {
			im2colOracle(x[b*imgLen:][:imgLen], g, want[b*outHW*rowLen:][:outHW*rowLen])
		}
		padded := randFloats[T](r, batch*g.PaddedLen())
		PadInto(x, g, padded)
		got := randFloats[T](r, len(want))
		for _, c := range stripCuts(r, batch*outHW, outHW) {
			Im2ColRowsInto(padded, g, c[0], got[c[0]*rowLen:c[1]*rowLen])
		}
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("%+v: row %d col %d = %v, oracle %v", g, i/rowLen, i%rowLen, got[i], want[i])
		}
	}
}

// TestCol2ImRowsMatchesOracle: scattering a batch's column gradient strip
// by strip, in order, at random cuts, into non-zero images gives every
// image element the oracle's addends in the oracle's order.
func TestCol2ImRowsMatchesOracle(t *testing.T) {
	t.Run("float64", testCol2ImRowsMatchesOracle[float64])
	t.Run("float32", testCol2ImRowsMatchesOracle[float32])
}

func testCol2ImRowsMatchesOracle[T Float](t *testing.T) {
	const batch = 3
	r := rng.New(25)
	for _, g := range oracleGeoms() {
		imgLen, outHW, rowLen := g.InC*g.InH*g.InW, g.OutH()*g.OutW(), g.InC*g.KH*g.KW
		grad := randFloats[T](r, batch*outHW*rowLen)
		got := randFloats[T](r, batch*imgLen)
		want := append([]T(nil), got...)
		for b := 0; b < batch; b++ {
			col2imOracle(grad[b*outHW*rowLen:][:outHW*rowLen], g, want[b*imgLen:][:imgLen])
		}
		for _, c := range stripCuts(r, batch*outHW, outHW) {
			Col2ImRowsInto(grad[c[0]*rowLen:c[1]*rowLen], g, c[0], got)
		}
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("%+v: img[%d] = %v, oracle %v", g, i, got[i], want[i])
		}
	}
}
