package tensor

import (
	"fmt"
	"math"
)

// EuclideanPanel is the operand of a Euclidean proximity matrix over n
// rows of one length. Pack interleaves the rows four at a time into one
// panel, once; RowBlockInto then fills the cells one block of four rows
// owns — each row's distance to every later row, and the mirror — with
// one call per block, so distinct blocks may be filled concurrently.
//
// A distance is the 4×4 tile's: four rows broadcast against the packed
// panel of four later rows, one lane per pair, each lane summing
// r(r(a[p]−b[p])²) from +0 over p ascending, then math.Sqrt — the
// difference, the square and the sum each rounded, in the order of
// linalg.VecDistance's Euclidean loop, so every cell holds that
// function's bits (DESIGN.md §10). The rows are read where they are;
// the panel is the only copy.
type EuclideanPanel struct {
	rows  [][]float64
	dim   int
	panel []float64 // rows j…j+3 at j·dim: panel[j·dim + 4p + c] = rows[j+c][p]
}

// Pack makes rows the operand of the row blocks that follow; neither the
// slice nor the rows' contents may change before the last of them. Every
// row must have the first one's length.
func (e *EuclideanPanel) Pack(rows [][]float64) {
	e.rows, e.dim = rows, 0
	if len(rows) > 0 {
		e.dim = len(rows[0])
	}
	for i, r := range rows {
		if len(r) != e.dim {
			panic(fmt.Sprintf("tensor: EuclideanPanel row %d has length %d, want %d", i, len(r), e.dim))
		}
	}
	k := e.dim
	e.panel = make([]float64, (len(rows)+3)/4*4*k)
	for j := 0; j < len(rows); j += 4 {
		b := e.block(j)
		packEuclidean(e.panel[j*k:][:4*k], &b)
	}
}

// block returns rows j…j+3. In a last block of fewer than four rows the
// missing ones repeat row j; the distances they give are never stored.
func (e *EuclideanPanel) block(j int) (b [4][]float64) {
	for c := range b {
		b[c] = e.rows[j]
		if j+c < len(e.rows) {
			b[c] = e.rows[j+c]
		}
	}
	return b
}

// RowBlockInto writes the cells rows i…i+3 own into dst, the n×n matrix
// over the packed rows: d(i′, j) at (i′, j) and at (j, i′) for every j >
// i′, each tile's rows and its mirror's as contiguous runs. i must be a
// multiple of four below n. No other cell is written — the diagonal
// included, which stays as dst holds it — so every cell off the diagonal
// has one writer and where the blocks run does not matter.
func (e *EuclideanPanel) RowBlockInto(dst *Tensor, i int) {
	n, k := len(e.rows), e.dim
	if i < 0 || i >= n || i%4 != 0 {
		panic(fmt.Sprintf("tensor: EuclideanPanel row block %d of %d rows", i, n))
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != n || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: EuclideanPanel dst shape %v, want [%d %d]", dst.Shape, n, n))
	}
	a, rr := e.block(i), min(4, n-i)
	var t [16]float64
	for j := i; j < n; j += 4 {
		euclideanTile(&a, e.panel[j*k:][:4*k], k, &t)
		for c, s := range t {
			t[c] = math.Sqrt(s)
		}
		cc := min(4, n-j)
		if j == i { // the diagonal tile: only the pairs c > r are this block's
			for r := 0; r < rr; r++ {
				for c := r + 1; c < cc; c++ {
					dst.Data[(i+r)*n+j+c], dst.Data[(j+c)*n+i+r] = t[4*r+c], t[4*r+c]
				}
			}
			continue
		}
		for r := 0; r < rr; r++ {
			copy(dst.Data[(i+r)*n+j:][:cc], t[4*r:])
		}
		for c := 0; c < cc; c++ {
			run := dst.Data[(j+c)*n+i:][:rr]
			for r := range run {
				run[r] = t[4*r+c]
			}
		}
	}
}

// packEuclidean interleaves four rows into pk (four times their length):
// pk[4p+c] = b[c][p].
func packEuclidean(pk []float64, b *[4][]float64) {
	b0 := b[0]
	b1, b2, b3 := b[1][:len(b0)], b[2][:len(b0)], b[3][:len(b0)]
	for p, v := range b0 {
		if len(pk) < 4 { // never: pk holds 4·len(b0); it proves pk[3] in bounds
			break
		}
		pk[0], pk[1], pk[2], pk[3] = v, b1[p], b2[p], b3[p]
		pk = pk[4:]
	}
}

// euclideanTile computes out[4r+c] = Σ_p r(r(a[r][p] − pk[4p+c])²), p
// ascending from +0, for the four rows of k in a against the packed
// panel pk (4k): on AVX2 hosts through the assembly tile, otherwise
// through the Go body. Both give the same bits.
func euclideanTile(a *[4][]float64, pk []float64, k int, out *[16]float64) {
	if !useASM || k == 0 {
		euclideanTileGo(a, pk, out)
		return
	}
	rows := [4]*float64{&a[0][:k][0], &a[1][:k][0], &a[2][:k][0], &a[3][:k][0]}
	f64EuclideanTileAVX2(&rows, &pk[:4*k][0], k, out)
}

// euclideanTileGo is the tile's specification, the non-amd64 path and
// the oracle the assembly is compared against with == on bits. Each
// output is its own chain: the difference rounded, the square rounded
// (the conversion keeps arm64 from fusing it into the add), then the
// sum, p ascending — linalg.VecDistance's Euclidean loop for that pair.
func euclideanTileGo(a *[4][]float64, pk []float64, out *[16]float64) {
	for r, row := range a {
		var s0, s1, s2, s3 float64
		q := pk
		for _, v := range row {
			if len(q) < 4 { // never: pk holds four lanes per p; it proves q[3] in bounds
				break
			}
			d0, d1, d2, d3 := v-q[0], v-q[1], v-q[2], v-q[3]
			s0 += float64(d0 * d0)
			s1 += float64(d1 * d1)
			s2 += float64(d2 * d2)
			s3 += float64(d3 * d3)
			q = q[4:]
		}
		o := out[4*r:][:4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
}
