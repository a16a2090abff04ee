package tensor

import "unsafe"

// Go glue of the assembly a·bᵀ tile and axpy (simd64_amd64.s for float64,
// simd_amd64.s for float32), one generic body for both element types. It
// is under CI's check_bce gate: slicing an operand row or taking the
// address an assembly routine starts from may check, once per call or per
// tile; the pack loop and the tile copy-out may not.

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
		switch a := any(&a[i*k]).(type) {
		case *float64:
			f64TransBTileAVX2(a, any(pp).(*float64), k, any(&tile[0]).(*float64))
		case *float32:
			f32TransBTileAVX2(a, any(pp).(*float32), k, any(&tile[0]).(*float32))
		}
		for r := 0; r < 4; r++ {
			out := dst[(i+r)*n+j:][:cols]
			src := tile[r*w:][:len(out)]
			for c := range out {
				out[c] = src[c]
			}
		}
	}
}

// axpyAVX2 runs T's assembly axpy: dst[i] += alpha*x[i] over n > 0
// elements, the product rounded before the sum.
func axpyAVX2[T Float](dst, x *T, alpha T, n int) {
	switch d := any(dst).(type) {
	case *float64:
		f64AxpyAVX2(d, any(x).(*float64), float64(alpha), n)
	case *float32:
		f32AxpyAVX2(d, any(x).(*float32), float32(alpha), n)
	}
}
