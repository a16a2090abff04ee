package tensor

import "unsafe"

// Go glue of the assembly a·bᵀ tile and axpy (simd64_amd64.s for float64,
// simd_amd64.s for float32), one generic body for both element types. It
// is under the root TestHotLoopsBoundsCheckFree: slicing an operand row
// or taking the address an assembly routine starts from may check, once
// per call or per tile; the pack loop and the tile stores may not.

// transBPanelK is the largest inner dimension the assembly a·bᵀ path
// takes: its packed panel of bᵀ holds one 32-byte register row per p on
// the stack, 8 KB at the bound. Every conv and dense layer of the model
// zoo is at or below it (LeNet's rowLen is 75 or 150); a larger k runs
// the Go body.
const transBPanelK = 256

// lanes is how many elements of T one 32-byte YMM register holds: 4
// float64, 8 float32. A tile is four rows by lanes output columns, 128
// bytes in either type.
func lanes[T Float]() int { return 32 / int(unsafe.Sizeof(T(0))) }

// rowMajorTaps is the tile's offset table for a row-major operand: row
// r's value at p is at its row base plus p.
var rowMajorTaps = func() (off [transBPanelK]int32) {
	for p := range off {
		off[p] = int32(p)
	}
	return off
}()

// transBTiles computes rows [lo,hi) of dst (m×n) = a (m×k) · bᵀ (b is
// n×k), all flat row-major and hi-lo a multiple of four, as tiles: for
// each block of lanes output columns the block's b-rows are interleaved
// once into a stack panel, then tileBlock runs the rows against it. A
// lane is the Go body's chain for that output — p ascending, product
// rounded, then the sum, ±0 multiplicands contributing nothing — so the
// tile holds the same bits.
func transBTiles[T Float](dst, a, b []T, k, n, lo, hi int) {
	var buf [transBPanelK * 8]T // sized for float32's eight lanes; float64 uses half
	w := lanes[T]()
	panel := buf[:w*k]
	for j := 0; j < n; j += w {
		packTransB(panel, b, k, n, j)
		tileBlock(dst, a, panel, k, n, j, lo, hi)
	}
}

// packTransB interleaves the b-rows j…j+w−1 of a column block into pk
// (w·k, w = lanes): pk[w·p+c] = b[j+c][p], four lanes per pass. In a last
// block of fewer than w columns the missing lanes repeat column j;
// tileBlock does not store them.
func packTransB[T Float](pk, b []T, k, n, j int) {
	w := lanes[T]()
	for c := 0; c < w; c += 4 {
		var rows [4][]T
		for r := range rows {
			col := j + c + r
			if col >= n {
				col = j
			}
			rows[r] = b[col*k:][:k]
		}
		b0 := rows[0]
		b1, b2, b3 := rows[1][:len(b0)], rows[2][:len(b0)], rows[3][:len(b0)]
		out := pk[c:]
		for p := 0; p < len(b0) && len(out) >= 4; p++ { // len(out) ≥ 4 always; it proves out[3] in bounds
			out[0], out[1], out[2], out[3] = b0[p], b1[p], b2[p], b3[p]
			if len(out) < w {
				break
			}
			out = out[w:]
		}
	}
}

// tileBlock computes output columns j…min(j+lanes, n) of rows [lo,hi)
// (hi-lo a multiple of four) against the column block's packed panel,
// one call of the element type's assembly tile per four rows.
func tileBlock[T Float](dst, a, panel []T, k, n, j, lo, hi int) {
	var tile [32]T // four rows of lanes; float64 uses the first half
	w := lanes[T]()
	cols, pp := min(w, n-j), &panel[0]
	for i := lo; i < hi; i += 4 {
		rows := [4]*T{&a[i*k], &a[(i+1)*k], &a[(i+2)*k], &a[(i+3)*k]}
		transBTile(&rows, &rowMajorTaps[0], pp, k, &tile, false)
		for r := 0; r < 4; r++ {
			out := dst[(i+r)*n+j:][:cols]
			src := tile[r*w:][:len(out)]
			for c := range out {
				out[c] = src[c]
			}
		}
	}
}

// transBTilesPackA computes rows [lo,hi) of dst (m×n) = a (m×k) · bᵀ (b is
// n×k), all flat row-major and n ≥ 4, with the operands' roles swapped:
// the rows of a are interleaved lanes at a time into a stack panel — the
// smaller operand when hi-lo < n — and b's rows run through the tile four
// at a time, the last n mod 4 as the tail of b's last four rows. The
// tile's row r, lane c is dst[i+c][j+r], stored transposed. Each output
// is the same chain as in transBTiles — p ascending, a[i][p]·b[j][p]
// rounded, then the sum — and the skip-zero rule stays with a, which is
// now the panel, so the tile masks by the panel's values.
func transBTilesPackA[T Float](dst, a, b []T, k, n, lo, hi int) {
	var buf [transBPanelK * 8]T // sized for float32's eight lanes; float64 uses half
	var tile [32]T              // four rows of lanes; float64 uses the first half
	w := lanes[T]()
	panel, full := buf[:w*k], n&^3
	rows, pp := a[lo*k:hi*k], &panel[0]
	for i := lo; i < hi; i += w {
		packTransB(panel, rows, k, hi-lo, i-lo)
		s0 := tile[:min(w, hi-i)] // one value per stored row of dst
		s1, s2, s3 := tile[w:][:len(s0)], tile[2*w:][:len(s0)], tile[3*w:][:len(s0)]
		for j := 0; j < full; j += 4 {
			bj := [4]*T{&b[j*k], &b[(j+1)*k], &b[(j+2)*k], &b[(j+3)*k]}
			transBTile(&bj, &rowMajorTaps[0], pp, k, &tile, true)
			for c, v := range s0 {
				out := dst[(i+c)*n+j:][:4]
				out[0], out[1], out[2], out[3] = v, s1[c], s2[c], s3[c]
			}
		}
		if full < n {
			bj := [4]*T{&b[(n-4)*k], &b[(n-3)*k], &b[(n-2)*k], &b[(n-1)*k]}
			transBTile(&bj, &rowMajorTaps[0], pp, k, &tile, true)
			for c, v := range s0 {
				out, col := dst[(i+c)*n+full:(i+c+1)*n], [4]T{v, s1[c], s2[c], s3[c]}
				copy(out, col[4-len(out):])
			}
		}
	}
}

// transBTile runs T's assembly tile: four rows, row r's value at p being
// rows[r][off[p]], against one packed panel into tile, masking by the
// panel's values when maskPanel is set and by the rows' otherwise.
func transBTile[T Float](rows *[4]*T, off *int32, panel *T, k int, tile *[32]T, maskPanel bool) {
	switch rows := any(rows).(type) {
	case *[4]*float64:
		f64TransBTileAVX2(rows, off, any(panel).(*float64), k, &any(tile).(*[32]float64)[0], maskPanel)
	case *[4]*float32:
		f32TransBTileAVX2(rows, off, any(panel).(*float32), k, &any(tile).(*[32]float32)[0], maskPanel)
	}
}

// axpyAVX2 runs T's assembly axpy: dst[i] += alpha[t]*x[t][i] for t = 0
// … terms−1 (1–4) in turn over n > 0 elements, each product rounded
// before its sum.
func axpyAVX2[T Float](dst *T, x *[4]*T, alpha *[4]T, terms, n int) {
	switch d := any(dst).(type) {
	case *float64:
		f64AxpyAVX2(d, any(x).(*[4]*float64), any(alpha).(*[4]float64), terms, n)
	case *float32:
		f32AxpyAVX2(d, any(x).(*[4]*float32), any(alpha).(*[4]float32), terms, n)
	}
}

// convAxpy adds terms (1–4) pixels' receptive fields, each scaled by its
// coefficient, into one output channel's row of a convolution's weight
// gradient: for each run r of runs (a (c, ky) pair) and kx < kw,
// dst[r·kw + kx] += alpha[u] · img[at[u] + runs[r] + kx] for u = 0 …
// terms−1 in turn, each product rounded before its sum. at[u] is pixel
// u's top-left tap in img. On AVX2 hosts it is one call of the element
// type's assembly; convAxpyGo is the same chain.
func convAxpy[T Float](dst, img []T, at *[4]int, alpha *[4]T, terms int, runs []int32, kw int) {
	if !useASM {
		convAxpyGo(dst, img, at, alpha, terms, runs, kw)
		return
	}
	x := [4]*T{&img[at[0]], &img[at[1]], &img[at[2]], &img[at[3]]}
	switch d := any(&dst[0]).(type) {
	case *float64:
		f64ConvAxpyAVX2(d, any(&x).(*[4]*float64), any(alpha).(*[4]float64), terms, &runs[0], len(runs), kw)
	case *float32:
		f32ConvAxpyAVX2(d, any(&x).(*[4]*float32), any(alpha).(*[4]float32), terms, &runs[0], len(runs), kw)
	}
}

// convAxpyGo is convAxpy's Go body: the non-amd64 path, and what the
// tests compare the assembly against with ==. Every element of dst gets
// the terms in order u = 0 … terms−1, each product rounded, then its sum.
func convAxpyGo[T Float](dst, img []T, at *[4]int, alpha *[4]T, terms int, runs []int32, kw int) {
	for u := 0; u < terms; u++ {
		a, base, out := alpha[u&3], at[u&3], dst // u < 4; the mask proves it
		x := img[base:]
		for _, r := range runs {
			taps := x[r:][:kw]
			o := out[:len(taps)]
			for kx, v := range taps {
				o[kx] += T(a * v)
			}
			out = out[len(taps):]
		}
	}
}
