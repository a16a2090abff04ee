package tensor

// Go glue of the float64 assembly a·bᵀ path (simd64_amd64.s). Like
// kernels32.go it is under CI's check_bce gate: slicing an operand row or
// taking the address an assembly routine starts from may check, once per
// call or per tile; the pack loop and the tile copy-out may not.

// transBPanelK is the largest inner dimension the assembly a·bᵀ path
// takes: its packed 4-column panel of bᵀ is k×4 float64 on the stack,
// 8 KB at the bound. Every conv and dense layer of the model zoo is
// below it (LeNet's rowLen is 75 or 150); a larger k runs the Go body.
const transBPanelK = 256

// transBTiles computes rows [lo,hi) of dst (m×n) = a (m×k) · bᵀ (b is
// n×k), all flat row-major and hi-lo a multiple of four, as 4×4 tiles:
// for each block of four output columns the four b-rows are interleaved
// once into a stack panel, then tileBlock runs the rows against it. A
// lane is the Go body's chain for that output — p ascending, product
// rounded, then the sum, ±0 multiplicands contributing nothing — so the
// tile holds the same bits.
func transBTiles(dst, a, b []float64, k, n, lo, hi int) {
	var panel [transBPanelK * 4]float64
	for j := 0; j < n; j += 4 {
		packTransB(panel[:4*k], b, k, n, j)
		tileBlock(dst, a, panel[:4*k], k, n, j, lo, hi)
	}
}

// packTransB interleaves b-rows j…j+3 into pk (4·k): pk[4p+c] = b[j+c][p].
// In a last block of fewer than four columns the missing lanes repeat
// column j; tileBlock does not store them.
func packTransB(pk, b []float64, k, n, j int) {
	cols := min(4, n-j)
	b0 := b[j*k:][:k]
	b1, b2, b3 := b0, b0, b0
	if cols > 1 {
		b1 = b[(j+1)*k:][:k]
	}
	if cols > 2 {
		b2 = b[(j+2)*k:][:k]
	}
	if cols > 3 {
		b3 = b[(j+3)*k:][:k]
	}
	b1, b2, b3 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)]
	for p, v := range b0 {
		if len(pk) < 4 { // never: len(pk) is 4·len(b0); it proves pk[3] in bounds
			break
		}
		pk[0], pk[1], pk[2], pk[3] = v, b1[p], b2[p], b3[p]
		pk = pk[4:]
	}
}

// tileBlock computes output columns j…min(j+4, n) of rows [lo,hi) (hi-lo
// a multiple of four) against the column block's packed panel, one
// f64TransBTileAVX2 call per four rows.
func tileBlock(dst, a, panel []float64, k, n, j, lo, hi int) {
	var tile [16]float64
	cols := min(4, n-j)
	for i := lo; i < hi; i += 4 {
		f64TransBTileAVX2(&a[i*k], &panel[0], k, &tile)
		for r := 0; r < 4; r++ {
			out := dst[(i+r)*n+j:][:cols]
			for c := range out {
				out[c] = tile[r*4+c]
			}
		}
	}
}
