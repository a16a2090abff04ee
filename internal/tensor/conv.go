package tensor

import (
	"fmt"
	"math"
)

// The forward convolution as one implicit product. Row r of a batch's
// unroll is output pixel r's receptive field, and its element p = (c, ky,
// kx) lies in the batch's padded copy (PadInto) at the pixel's top-left
// tap plus off[p] = (c·(InH+2·Pad) + ky)·(InW+2·Pad) + kx. The a·bᵀ tile
// broadcasts one a value at a time, so it reads those rows in place
// through four pixels' row bases and the one offset table: no unroll is
// written. Each output is the chain the unrolled product summed — p
// ascending, the product rounded, then the sum, a ±0 tap (the padding
// included) skipped — so the bits are the unroll's.

// TransBPanel is the b operand of a product a · bᵀ taken against many a
// in turn — a convolution's weights against every batch it convolves.
// Pack lays b out for the kernel once; ConvInto then runs the product
// without packing b again. On the tile path the layout is the lanes-wide
// panel of every column block, the one MatMulTransBInto packs on its
// stack per call; the Go body reads b's rows as they are.
type TransBPanel[T Float] struct {
	b     *Of[T]
	panel []T     // tile path: column block j/lanes at j·k
	off   []int32 // the tap offsets of the geometry ConvInto last ran
}

// Pack makes b the operand of the products that follow; b's contents
// must not change before the last of them.
func (p *TransBPanel[T]) Pack(b *Of[T]) {
	if len(b.Shape) != 2 {
		panic("tensor: TransBPanel requires a rank-2 tensor")
	}
	p.b, p.panel = b, p.panel[:0]
	n, k := b.Shape[0], b.Shape[1]
	if !useASM || k == 0 || k > transBPanelK {
		return
	}
	w := lanes[T]()
	if need := (n + w - 1) / w * w * k; cap(p.panel) < need {
		p.panel = make([]T, need)
	} else {
		p.panel = p.panel[:need]
	}
	for j := 0; j < n; j += w {
		packTransB(p.panel[j*k:][:w*k], b.Data, k, n, j)
	}
}

// ConvInto computes a batch's convolution output into dst, channel-major
// per image (OutC planes of OutH·OutW), bias added: dst[b][ch][pix] =
// Σ_p unroll[b·OutH·OutW + pix][p] · W[ch][p] + bias[ch], for the packed
// W (OutC × InC·KH·KW) and the batch's padded copy. Whole groups of four
// pixels go through the tile, the rest through the Go body; the two
// produce the same bits for every element.
func (p *TransBPanel[T]) ConvInto(dst, padded []T, g ConvGeom, bias []T) {
	n, k := p.b.Shape[0], p.b.Shape[1]
	outHW, padLen := g.OutH()*g.OutW(), g.PaddedLen()
	if k != g.InC*g.KH*g.KW || len(bias) != n || len(padded)%padLen != 0 || len(dst) != len(padded)/padLen*n*outHW {
		panic(fmt.Sprintf("tensor: ConvInto of %d padded elements into %d, weights %v, %d biases, geometry %+v",
			len(padded), len(dst), p.b.Shape, len(bias), g))
	}
	p.off = tapOffsets(p.off, g)
	pixels, lo := len(padded)/padLen*outHW, 0
	if useASM && len(p.panel) > 0 {
		lo = pixels &^ 3
		convTiles(dst, padded, p.panel, bias, p.off, g, 0, lo)
	}
	convRowsGo(dst, padded, p.b.Data, bias, p.off, g, lo, pixels)
}

// tapOffsets returns off, grown to InC·KH·KW, holding each tap's offset
// from its pixel's top-left tap in one padded image, p = (c, ky, kx) in
// the unroll's order.
func tapOffsets(off []int32, g ConvGeom) []int32 {
	if g.PaddedLen() > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: a padded image of geometry %+v has more than 2³¹ elements", g))
	}
	rowLen := g.InC * g.KH * g.KW
	if cap(off) < rowLen {
		off = make([]int32, rowLen)
	}
	off = off[:rowLen]
	pw, ph := g.InW+2*g.Pad, g.InH+2*g.Pad // a padded image's width and height
	run := off
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < g.KH; ky++ {
			at, taps := (c*ph+ky)*pw, run[:g.KW]
			for kx := range taps {
				taps[kx] = int32(at + kx)
			}
			run = run[g.KW:]
		}
	}
	return off
}

// pixelWalk steps through a batch's output pixels r = b·OutH·OutW +
// oy·OutW + ox in order: tap is pixel r's top-left tap in the padded
// batch, at its channel-0 element in the channel-major output.
type pixelWalk struct {
	tap, at, ox, oy int
	outW, outH      int
	stride          int
	rowStep         int // tap: from one past an output row's last pixel to the next row's first
	imgStep         int // tap: from one past an image's last output row to the next image
	outStep         int // at: from one past an image's channel-0 plane to the next image's
}

func newPixelWalk(g ConvGeom, outC, r int) pixelWalk {
	outH, outW := g.OutH(), g.OutW()
	outHW, pw := outH*outW, g.InW+2*g.Pad
	img, oy, ox := r/outHW, r%outHW/outW, r%outW
	return pixelWalk{
		tap: img*g.PaddedLen() + (oy*pw+ox)*g.Stride, at: img*outC*outHW + oy*outW + ox,
		ox: ox, oy: oy, outW: outW, outH: outH, stride: g.Stride,
		rowStep: g.Stride * (pw - outW),
		imgStep: g.PaddedLen() - outH*g.Stride*pw,
		outStep: (outC - 1) * outHW,
	}
}

// next moves to the following pixel.
func (q *pixelWalk) next() {
	q.tap += q.stride
	q.at++
	if q.ox++; q.ox < q.outW {
		return
	}
	q.ox, q.tap = 0, q.tap+q.rowStep
	if q.oy++; q.oy < q.outH {
		return
	}
	q.oy, q.tap, q.at = 0, q.tap+q.imgStep, q.at+q.outStep
}

// convTiles computes output pixels [lo,hi) of ConvInto (hi-lo a multiple
// of four) into dst: per four pixels, one call of T's tile per column
// block of lanes channels, against the block's packed panel, read at the
// four pixels' top-left taps through off. Tile row r is pixel r's
// channels, stored transposed into the output's channel planes: four
// consecutive elements per channel when the four pixels lie in one image,
// pixel by pixel when they straddle two.
func convTiles[T Float](dst, padded, panel, bias []T, off []int32, g ConvGeom, lo, hi int) {
	var tile [32]T // four pixels of lanes channels; float64 uses the first half
	w, k, n := lanes[T](), len(off), len(bias)
	outHW, q := g.OutH()*g.OutW(), newPixelWalk(g, n, lo)
	var rows [4]*T
	var at [4]int
	for i := lo; i < hi; i += 4 {
		for r := range rows {
			rows[r], at[r] = &padded[q.tap], q.at
			q.next()
		}
		for j := 0; j < n; j += w {
			transBTile(&rows, &off[0], &panel[j*k], k, &tile, false)
			b := bias[j:min(j+w, n)]
			if a := at[0]; at[3]-a == 3 {
				storeQuad(dst[a+j*outHW:], &tile, b, outHW, w)
				continue
			}
			for r, a := range at {
				storeChannels(dst[a+j*outHW:], tile[r*w:][:len(b)], b, outHW)
			}
		}
	}
}

// storeQuad writes the sums of four consecutive pixels of one image, the
// four rows of tile (lanes wide), for len(bias) consecutive channels:
// out starts at the first pixel's first channel, and each channel's four
// elements are one run, a channel plane (outHW) after the previous
// channel's.
// Each sum gets its channel's bias — the one rounding the unrolled
// product's bias add made.
func storeQuad[T Float](out []T, tile *[32]T, bias []T, outHW, w int) {
	s0 := tile[:len(bias)]
	s1, s2, s3 := tile[w:][:len(s0)], tile[2*w:][:len(s0)], tile[3*w:][:len(s0)]
	for c, v := range s0 {
		o, b := out[c*outHW:][:4], bias[c]
		o[0], o[1], o[2], o[3] = v+b, s1[c]+b, s2[c]+b, s3[c]+b
	}
}

// storeChannels writes one pixel's sums s of consecutive channels to the
// channel-major output, out starting at the first channel's element and
// one channel plane (outHW) between them, each plus its bias — the one
// rounding the unrolled product's bias add made.
func storeChannels[T Float](out, s, bias []T, outHW int) {
	bias = bias[:len(s)]
	for c := 0; c < len(s) && len(out) > 0; c++ {
		out[0] = s[c] + bias[c]
		out = out[min(outHW, len(out)):]
	}
}

// convRowsGo computes output pixels [lo,hi) of ConvInto into dst, each as
// dot products of its receptive field, read through off, with W's rows
// (w, OutC × k), four channels at a time (a short last block repeats its
// last channel and stores only the channels it owns): each output summed
// over p in increasing order, the product rounded, a ±0 tap skipped —
// matmulTransBRowsGo's chain over the unrolled row. This is the
// specification of the offset form: the non-amd64 path, the fallback
// beside the tile, and what the tests compare the tile against with ==.
func convRowsGo[T Float](dst, padded, w, bias []T, off []int32, g ConvGeom, lo, hi int) {
	k, n := len(off), len(bias)
	outHW, q := g.OutH()*g.OutW(), newPixelWalk(g, n, lo)
	for i := lo; i < hi; i++ {
		a := padded[q.tap:]
		for j := 0; j < n; j += 4 {
			w0, w1 := w[j*k:][:k], w[min(j+1, n-1)*k:][:k]
			w2, w3 := w[min(j+2, n-1)*k:][:k], w[min(j+3, n-1)*k:][:k]
			var s0, s1, s2, s3 T
			for p := 0; p < len(off); p++ {
				av := a[off[p]]
				if av == 0 {
					continue
				}
				s0 += T(av * w0[p])
				s1 += T(av * w1[p])
				s2 += T(av * w2[p])
				s3 += T(av * w3[p])
			}
			s := [4]T{s0, s1, s2, s3}
			storeChannels(dst[q.at+j*outHW:], s[:min(4, n-j)], bias[j:], outHW)
		}
		q.next()
	}
}

// The backward convolution, read in place in the same padded batch. The
// weight gradient is gW[ch][p] += Σ_r gy[r][ch] · unroll[r][p] over the
// batch's pixels r ascending, a zero gy skipped: the chain MatMulTransAAddInto
// runs over the unrolled rows. Element p = (c, ky, kx) of pixel r's row
// lies at the pixel's top-left tap plus runs[c·KH + ky] + kx, so a
// channel's row of the weight gradient is InC·KH runs of KW taps, each
// read straight from the padded image: no unroll is written. gy[r][ch] is
// gradOut's channel-major element, so the coefficients of one image and
// channel are one contiguous row of it, and no de-interleave is needed
// either.

// ConvWeightGrad adds a batch's weight gradient into a convolution's
// gW, reading the unroll in place in the padded batch its forward kept.
// It holds the geometry's offset tables, rewritten on every call over
// storage it keeps.
type ConvWeightGrad[T Float] struct {
	runs   []int32 // run c·KH + ky: its first tap's offset from a pixel's top-left tap
	pixels []int32 // pixel oy·OutW + ox: its top-left tap's offset in a padded image
}

// AddInto adds Σ over the batch's pixels of gradOut's coefficient times
// the pixel's receptive field into gw (OutC × InC·KH·KW): gradOut holds
// the batch's channel-major output gradients (OutC planes of OutH·OutW
// per image), padded the batch's padded copy (PadInto). Every element of
// gw goes on from its value with the non-zero terms in ascending (image,
// pixel) order, each product rounded before its sum, so the result is
// MatMulTransAAddInto(gw, gy, unroll) bit for bit for the pixel-major gy,
// on both kernel paths: the terms of one image and channel are listed
// without a branch, then handed to convAxpy four at a time.
func (w *ConvWeightGrad[T]) AddInto(gw *Of[T], padded, gradOut []T, g ConvGeom) {
	outHW, padLen, rowLen := g.OutH()*g.OutW(), g.PaddedLen(), g.InC*g.KH*g.KW
	if len(gw.Shape) != 2 || gw.Shape[1] != rowLen || len(padded)%padLen != 0 ||
		len(gradOut) != len(padded)/padLen*gw.Shape[0]*outHW {
		panic(fmt.Sprintf("tensor: ConvWeightGrad of %d gradients and %d padded elements into %v, geometry %+v",
			len(gradOut), len(padded), gw.Shape, g))
	}
	w.offsets(g)
	var list [256]int32 // one chunk of a row's listed pixels
	for len(gradOut) > 0 {
		img := padded[:padLen]
		padded = padded[padLen:]
		for dst := gw.Data; len(dst) > 0; dst = dst[rowLen:] {
			row := gradOut[:outHW]
			gradOut = gradOut[outHW:]
			for p0 := 0; p0 < outHW; p0 += len(list) {
				nz := 0
				for p, v := range row[p0:min(p0+len(list), outHW)] {
					list[nz&(len(list)-1)] = int32(p0 + p) // nz < len(list) here; the mask proves it
					nz += b2i(v != 0)
				}
				for t := 0; t < nz; t += 4 {
					var at [4]int
					var av [4]T
					group := list[t:min(t+4, nz)]
					for u, p := range group {
						at[u&3], av[u&3] = int(w.pixels[p]), row[p] // u < 4; the mask proves it
					}
					convAxpy(dst[:rowLen], img, &at, &av, len(group), w.runs, g.KW)
				}
			}
		}
	}
}

// offsets rewrites the run and pixel offset tables for g.
func (w *ConvWeightGrad[T]) offsets(g ConvGeom) {
	if g.PaddedLen() > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: a padded image of geometry %+v has more than 2³¹ elements", g))
	}
	pw := g.InW + 2*g.Pad
	plane := (g.InH + 2*g.Pad) * pw // one channel of a padded image
	w.runs = w.runs[:0]
	for c := 0; c < g.InC; c++ {
		for ky := 0; ky < g.KH; ky++ {
			w.runs = append(w.runs, int32(c*plane+ky*pw))
		}
	}
	w.pixels = w.pixels[:0]
	for oy := 0; oy < g.OutH(); oy++ {
		for ox := 0; ox < g.OutW(); ox++ {
			w.pixels = append(w.pixels, int32((oy*pw+ox)*g.Stride))
		}
	}
}

// ConvInputGradInto writes a batch's input gradient into gx (batch ×
// InC·InH·InW): per image, the column gradient gyᵀ·W of its
// channel-major gradOut rows into cols (one image's OutH·OutW ×
// InC·KH·KW), then Col2ImRowsInto scatters it. The column gradient is
// axpyRows with gradOut as the strided operand, each element's chain over
// the channels ascending, a zero skipped: MatMulInto's chain on the
// pixel-major gy, so the input gradient is the unrolled product's bit for
// bit.
func ConvInputGradInto[T Float](gx, cols, gradOut []T, w *Of[T], g ConvGeom) {
	outC, rowLen, outHW := w.Shape[0], g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	imgLen := g.InC * g.InH * g.InW
	if len(w.Shape) != 2 || w.Shape[1] != rowLen || len(cols) != outHW*rowLen ||
		len(gradOut)%(outC*outHW) != 0 || len(gx) != len(gradOut)/(outC*outHW)*imgLen {
		panic(fmt.Sprintf("tensor: ConvInputGrad of %d gradients into %d through %d columns, weights %v, geometry %+v",
			len(gradOut), len(gx), len(cols), w.Shape, g))
	}
	clear(gx)
	for b := 0; b*outC*outHW < len(gradOut); b++ {
		clear(cols)
		axpyRows(cols, gradOut[b*outC*outHW:], w.Data, outC, rowLen, 1, outHW, 0, outHW)
		Col2ImRowsInto(cols, g, b*outHW, gx)
	}
}
