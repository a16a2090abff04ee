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
