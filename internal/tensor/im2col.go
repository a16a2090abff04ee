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

// PaddedLen is the length of one image's zero-padded copy (PadInto): InC
// planes of (InH+2·Pad) × (InW+2·Pad).
func (g ConvGeom) PaddedLen() int { return g.InC * (g.InH + 2*g.Pad) * (g.InW + 2*g.Pad) }

// PadInto writes the zero-padded copy of whole CHW images: x holds any
// number of images of InC·InH·InW elements, dst as many of PaddedLen, and
// every element of dst is written. With the padding laid down as data, no
// unrolled run needs clamping (Im2ColRowsInto).
func PadInto[T Float](x []T, g ConvGeom, dst []T) {
	plane, imgLen := g.InH*g.InW, g.InC*g.InH*g.InW
	if len(x)%imgLen != 0 || len(dst) != len(x)/imgLen*g.PaddedLen() {
		panic(fmt.Sprintf("tensor: PadInto of %d elements into %d, geometry %+v", len(x), len(dst), g))
	}
	pw := g.InW + 2*g.Pad
	for len(x) > 0 { // one channel plane per iteration
		src, out := x[:plane], dst[:(g.InH+2*g.Pad)*pw]
		x, dst = x[plane:], dst[len(out):]
		clear(out[:g.Pad*pw+g.Pad]) // the top rows and the first row's left edge
		out = out[g.Pad*pw+g.Pad:]
		for iy := 0; iy < g.InH; iy++ {
			copy(out[:g.InW], src[iy*g.InW:])
			clear(out[g.InW:][:2*g.Pad]) // this row's right edge, the next row's left
			out = out[pw:]
		}
		clear(out) // the bottom rows
	}
}

// Im2ColRowsInto writes rows [r0, r0+n) of the unroll of a batch of
// images into dst (n × InC·KH·KW, n = len(dst)/(InC·KH·KW)), reading the
// batch's padded copy (PadInto). Row r is output pixel r mod OutH·OutW of
// image r / (OutH·OutW), laid out as Im2ColInto lays out one image's, so a
// batch's rows are its images' unrolls stacked, and any run of them —
// across output rows and images — can be produced on its own. A
// convolution writes no unroll at all: its Forward and its weight
// gradient read the padded copy in place (TransBPanel.ConvInto,
// ConvWeightGrad); Im2ColInto and the oracle tests unroll through here.
//
// It moves runs, not elements: for each output row the strip meets, a
// (c, ky) pair is one run of KW elements per output pixel, consecutive
// pixels' runs Stride apart in the padded image row and one column row
// (rowLen) apart in dst. On AVX2 hosts those go through one strided
// copyRunsAVX2 call; otherwise the Go loop copies them one by one. A copy
// has no arithmetic, so the two agree bit for bit.
func Im2ColRowsInto[T Float](padded []T, g ConvGeom, r0 int, dst []T) {
	outH, outW := g.OutH(), g.OutW()
	outHW := outH * outW
	rowLen, padLen := g.InC*g.KH*g.KW, g.PaddedLen()
	if r0 < 0 || len(dst)%rowLen != 0 || len(padded)%padLen != 0 || r0+len(dst)/rowLen > len(padded)/padLen*outHW {
		panic(fmt.Sprintf("tensor: Im2ColRows of %d elements from row %d, %d padded elements, geometry %+v", len(dst), r0, len(padded), g))
	}
	pw := g.InW + 2*g.Pad
	plane := (g.InH + 2*g.Pad) * pw
	size := int(unsafe.Sizeof(T(0)))
	runBytes, dstStride, srcStride := g.KW*size, rowLen*size, g.Stride*size
	img, oy, ox := padded[r0/outHW*padLen:], r0%outHW/outW, r0%outW
	for len(dst) > 0 {
		n := min(outW-ox, len(dst)/rowLen)         // the strip's pixels of output row oy
		at, col := oy*g.Stride*pw+ox*g.Stride, dst // first pixel's tap (0, 0, 0); its column row
		for c := 0; c < g.InC; c++ {
			src := img[c*plane+at:]
			for ky := 0; ky < g.KH; ky++ {
				if useASM {
					copyRunsAVX2(unsafe.Pointer(&col[0]), unsafe.Pointer(&src[ky*pw]), runBytes, n, dstStride, srcStride)
				} else {
					for i := 0; i < n; i++ {
						copy(col[i*rowLen:][:g.KW], src[ky*pw+i*g.Stride:])
					}
				}
				col = col[g.KW:]
			}
		}
		dst = dst[n*rowLen:]
		if ox += n; ox == outW {
			ox = 0
			if oy++; oy == outH {
				oy, img = 0, img[padLen:]
			}
		}
	}
}

// Col2ImRowsInto scatters rows [r0, r0+n) of a batch's column gradient
// (n × InC·KH·KW, n = len(grad)/(InC·KH·KW)) back into the batch's
// unpadded images, accumulating into img: the adjoint of Im2ColRowsInto.
// Rows are visited in ascending order, so a layer that scatters its
// strips in order hands every image element its addends in ascending
// (oy, ox) order, however the strips are cut: the sums are a pure function
// of the operands, bit for bit. The row test is made once per kernel row,
// the valid tap range once per output pixel.
func Col2ImRowsInto[T Float](grad []T, g ConvGeom, r0 int, img []T) {
	outH, outW := g.OutH(), g.OutW()
	outHW := outH * outW
	rowLen, imgLen := g.InC*g.KH*g.KW, g.InC*g.InH*g.InW
	if r0 < 0 || len(grad)%rowLen != 0 || len(img)%imgLen != 0 || r0+len(grad)/rowLen > len(img)/imgLen*outHW {
		panic(fmt.Sprintf("tensor: Col2ImRows of %d elements from row %d into %d, geometry %+v", len(grad), r0, len(img), g))
	}
	im, oy, ox := img[r0/outHW*imgLen:], r0%outHW/outW, r0%outW
	for len(grad) > 0 {
		k0, k1, ix := g.taps(ox)
		src := grad[:rowLen]
		grad = grad[rowLen:]
		for c := 0; c < g.InC; c++ {
			for ky := 0; ky < g.KH; ky++ {
				run := src[k0:k1]
				src = src[g.KW:]
				iy := oy*g.Stride + ky - g.Pad
				if iy < 0 || iy >= g.InH {
					continue
				}
				into := im[(c*g.InH+iy)*g.InW+ix:][:len(run)]
				for k, v := range run {
					into[k] += v
				}
			}
		}
		if ox++; ox == outW {
			ox = 0
			if oy++; oy == outH {
				oy, im = 0, im[imgLen:]
			}
		}
	}
}

// Im2ColInto unrolls a single CHW image (flat slice of length
// InC*InH*InW) into a (OutH*OutW) × (InC*KH*KW) row-major matrix written
// into the flat slice dst, whose length must be exactly that product.
// Each row is the receptive field of one output pixel (out-of-range taps
// read as zero), so convolution becomes cols · Wᵀ. It is the one-image,
// one-strip case of Im2ColRowsInto, over a padded copy it allocates; a
// layer pads its batch once and never holds this matrix whole.
func Im2ColInto[T Float](img []T, g ConvGeom, dst []T) {
	g.Validate()
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if want := g.OutH() * g.OutW() * g.InC * g.KH * g.KW; len(dst) != want {
		panic(fmt.Sprintf("tensor: Im2Col dst length %d, want %d", len(dst), want))
	}
	padded := make([]T, g.PaddedLen())
	PadInto(img, g, padded)
	Im2ColRowsInto(padded, g, 0, dst)
}

// Im2Col32Into is Im2ColInto for float32 data.
func Im2Col32Into(img []float32, g ConvGeom, dst []float32) { Im2ColInto(img, g, dst) }

// Col2ImInto scatters the columns gradient back into image space: the
// adjoint of Im2ColInto. grad is the flat (OutH*OutW) × (InC*KH*KW)
// gradient, of exactly that length; the result is accumulated into img,
// which the caller must pre-zero if a fresh gradient is wanted. It is the
// one-image case of Col2ImRowsInto, so an image element receives its
// addends in ascending (oy, ox) order.
func Col2ImInto[T Float](grad []T, g ConvGeom, img []T) {
	g.Validate()
	if len(img) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im image length %d, want %d", len(img), g.InC*g.InH*g.InW))
	}
	if want := g.OutH() * g.OutW() * g.InC * g.KH * g.KW; len(grad) != want {
		panic(fmt.Sprintf("tensor: Col2Im grad length %d, want %d", len(grad), want))
	}
	Col2ImRowsInto(grad, g, 0, img)
}

// Col2Im32Into is Col2ImInto for float32 data.
func Col2Im32Into(grad []float32, g ConvGeom, img []float32) { Col2ImInto(grad, g, img) }
