package tensor

import (
	"fmt"
	"unsafe"
)

// ConvGeom describes the geometry of a 2-D convolution over CHW images.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	Stride        int
	Pad           int
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// Validate panics if the geometry is degenerate.
func (g ConvGeom) Validate() {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.KH <= 0 || g.KW <= 0 {
		panic(fmt.Sprintf("tensor: invalid conv geometry %+v", g))
	}
	if g.Stride <= 0 || g.Pad < 0 {
		panic(fmt.Sprintf("tensor: invalid conv stride/pad %+v", g))
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v yields empty output", g))
	}
}

// taps returns the kernel columns [k0, k1) of output column ox that
// land inside the image row, and the image column ix tap k0 reads; the
// taps before k0 and from k1 on read padding. All three are clamped, so a
// receptive field wholly outside the row (pad ≥ KW) is an empty run at a
// valid offset.
func (g ConvGeom) taps(ox int) (k0, k1, ix int) {
	left := ox*g.Stride - g.Pad // image column of tap 0
	k0 = min(max(-left, 0), g.KW)
	k1 = max(min(g.InW-left, g.KW), k0)
	return k0, k1, min(max(left, 0), g.InW)
}

// Im2ColInto unrolls a single CHW image (flat slice of length
// InC*InH*InW) into a (OutH*OutW) × (InC*KH*KW) row-major matrix written
// into the flat slice dst, whose length must be exactly that product.
// Each row is the receptive field of one output pixel (out-of-range taps
// read as zero), so convolution becomes cols · Wᵀ. It is allocation-free:
// layers unroll each image of a batch into its slice of a shared
// workspace.
//
// It moves runs, not elements: one kernel row of one output pixel is a
// contiguous stretch of an image row. On AVX2 hosts the runs of a whole
// output row go through one strided assembly copy (im2colRuns); the Go
// run loop (im2colGo) is the other path. A copy has no arithmetic, so the
// two agree bit for bit in any order.
func Im2ColInto[T Float](img []T, g ConvGeom, dst []T) {
	g.Validate()
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if want := g.OutH() * g.OutW() * g.InC * g.KH * g.KW; len(dst) != want {
		panic(fmt.Sprintf("tensor: Im2Col dst length %d, want %d", len(dst), want))
	}
	if useASM && g.InW+2*g.Pad <= padRowMax {
		im2colRuns(img, g, dst)
		return
	}
	im2colGo(img, g, dst)
}

// padRowMax is the widest padded image row (InW + 2·Pad, in elements)
// im2colRuns holds in its stack buffer: 1 KB in float64. The model zoo's
// images are 16 to 32 wide; a wider row takes the Go body.
const padRowMax = 128

// im2colRuns walks (channel, padded image row): it lays the row between
// zeroed edges in a stack buffer — so padding is data and no run needs
// clamping — and for every kernel row ky that meets it at an output row
// oy emits the OutW runs of (oy, c, ky) with one copyRunsAVX2 call: run
// ox starts Stride elements after run ox-1 in the buffer and one column
// row (rowLen) after it in dst. Each (oy, ox, c, ky) run is produced by
// exactly one padded row, so every dst element is written exactly once.
func im2colRuns[T Float](img []T, g ConvGeom, dst []T) {
	outH, outW := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	size := int(unsafe.Sizeof(img[0]))
	var row [padRowMax]T
	inner := row[g.Pad:][:g.InW]
	for c := 0; c < g.InC; c++ {
		for vy := 0; vy < g.InH+2*g.Pad; vy++ {
			if iy := vy - g.Pad; iy >= 0 && iy < g.InH {
				copy(inner, img[(c*g.InH+iy)*g.InW:])
			} else {
				clear(inner)
			}
			for ky := 0; ky < g.KH && ky <= vy; ky++ {
				oy := (vy - ky) / g.Stride
				if oy*g.Stride != vy-ky || oy >= outH {
					continue
				}
				copyRunsAVX2(unsafe.Pointer(&dst[oy*outW*rowLen+(c*g.KH+ky)*g.KW]), unsafe.Pointer(&row[0]),
					g.KW*size, outW, rowLen*size, g.Stride*size)
			}
		}
	}
}

// im2colGo is the pure-Go unroll: the row test is made once per kernel
// row, the valid tap range once per output pixel, and the body copies
// that run and zero-fills its edges. It is the non-amd64 path and the
// path of rows wider than padRowMax.
func im2colGo[T Float](img []T, g ConvGeom, dst []T) {
	outH, outW := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			k0, k1, ix := g.taps(ox)
			dst := dst[(oy*outW+ox)*rowLen:][:rowLen]
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.KH; ky++ {
					run := dst[:g.KW]
					dst = dst[g.KW:]
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						clear(run)
						continue
					}
					clear(run[:k0])
					copy(run[k0:k1], img[(c*g.InH+iy)*g.InW+ix:])
					clear(run[k1:])
				}
			}
		}
	}
}

// Im2Col32Into is Im2ColInto for float32 data.
func Im2Col32Into(img []float32, g ConvGeom, dst []float32) { Im2ColInto(img, g, dst) }

// Col2ImInto scatters the columns gradient back into image space: the
// adjoint of Im2ColInto. grad is the flat (OutH*OutW) × (InC*KH*KW)
// gradient, of exactly that length; the result is accumulated into img,
// which the caller must pre-zero if a fresh gradient is wanted.
//
// Runs as in Im2ColInto. Output pixels are visited row by row, left to
// right, so an image element receives its addends in ascending (oy, ox)
// order whatever the geometry: the sums are a pure function of the
// operands, bit for bit.
func Col2ImInto[T Float](grad []T, g ConvGeom, img []T) {
	g.Validate()
	outH, outW := g.OutH(), g.OutW()
	rowLen := g.InC * g.KH * g.KW
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if len(grad) != outH*outW*rowLen {
		panic(fmt.Sprintf("tensor: Col2Im grad length %d, want %d", len(grad), outH*outW*rowLen))
	}
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			k0, k1, ix := g.taps(ox)
			src := grad[(oy*outW+ox)*rowLen:][:rowLen]
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.KH; ky++ {
					run := src[k0:k1]
					src = src[g.KW:]
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						continue
					}
					into := img[(c*g.InH+iy)*g.InW+ix:][:len(run)]
					for k, v := range run {
						into[k] += v
					}
				}
			}
		}
	}
}

// Col2Im32Into is Col2ImInto for float32 data.
func Col2Im32Into(grad []float32, g ConvGeom, img []float32) { Col2ImInto(grad, g, img) }
