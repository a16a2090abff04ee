package tensor_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fedclust/internal/linalg"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// The Euclidean distance tile is held to linalg.VecDistance, its
// specification, on bits: the proximity matrix filled through the
// assembly tile and through the Go body (the gate on and off) must hold
// VecDistance's value for every pair, NaN compared as NaN-ness (which of
// two NaN operands an x86 add returns is the one thing operand order
// shows), and leave the diagonal as it found it.

// diagSentinel marks the diagonal: RowBlockInto must never write it.
const diagSentinel = -7.0

// euclideanPaths are the kernel paths this host can run: the Go body,
// and the assembly tile on AVX2 hosts.
func euclideanPaths() []bool {
	if tensor.UseASM() {
		return []bool{false, true}
	}
	return []bool{false}
}

// fillEuclidean packs rows and fills the n×n matrix one row block per
// call, last block first, through the chosen path.
func fillEuclidean(rows [][]float64, asm bool) *tensor.Tensor {
	defer tensor.SetUseASM(tensor.SetUseASM(asm))
	n := len(rows)
	var p tensor.EuclideanPanel
	p.Pack(rows)
	dst := tensor.New(n, n)
	for i := 0; i < n; i++ {
		dst.Data[i*n+i] = diagSentinel
	}
	for i := (n - 1) &^ 3; i >= 0; i -= 4 {
		p.RowBlockInto(dst, i)
	}
	return dst
}

// checkEuclidean fails on the first cell that is not VecDistance's value
// for its pair (rows i < j, a = rows[i]) or a diagonal cell that was
// written.
func checkEuclidean(t *testing.T, what string, rows [][]float64, asm bool) {
	t.Helper()
	n := len(rows)
	got := fillEuclidean(rows, asm)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g := got.Data[i*n+j]
			want := diagSentinel
			if i != j {
				want = linalg.VecDistance(linalg.Euclidean, rows[min(i, j)], rows[max(i, j)])
			}
			if math.Float64bits(g) != math.Float64bits(want) && !(g != g && want != want) {
				t.Fatalf("%s, asm %v: d[%d][%d] = %v (%#x), VecDistance %v (%#x)",
					what, asm, i, j, g, math.Float64bits(g), want, math.Float64bits(want))
			}
		}
	}
}

// cutRows returns n rows of dim cut from one larger buffer: each row
// starts at an odd offset after a gap, and the buffer runs on past the
// last row. A quarter of the rows carry one non-finite value when
// nonFinite is set.
func cutRows(r *rng.Rng, n, dim int, nonFinite bool) [][]float64 {
	stride := dim + 3
	buf := make([]float64, 5+n*stride+7)
	for i := range buf {
		switch c := r.Intn(16); {
		case c == 0:
			buf[i] = 0
		case c == 1:
			buf[i] = math.Copysign(0, -1)
		case c == 2:
			buf[i] = 1e-160 * r.NormFloat64() // squares underflow
		case c == 3:
			buf[i] = 1e160 * r.NormFloat64() // squares overflow
		default:
			buf[i] = r.NormFloat64()
		}
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = buf[5+i*stride:][:dim]
		if nonFinite && r.Intn(4) == 0 {
			rows[i][r.Intn(dim)] = [...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[r.Intn(3)]
		}
	}
	return rows
}

// TestEuclideanPanelMatchesVecDistance: every row count around the
// tile's four (full and partial blocks, a block of one) and a large
// one, every length from one to the features' 200, rows cut from a
// larger buffer, with finite values — ±0, squares that underflow or
// overflow — and with ±Inf and NaN.
func TestEuclideanPanelMatchesVecDistance(t *testing.T) {
	r := rng.New(42)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 513} {
		for _, dim := range []int{1, 2, 3, 200} {
			for _, nonFinite := range []bool{false, true} {
				if n == 513 && (dim != 200 || nonFinite) {
					continue // one large case is enough
				}
				rows := cutRows(r, n, dim, nonFinite)
				for _, asm := range euclideanPaths() {
					checkEuclidean(t, fmt.Sprintf("n %d dim %d", n, dim), rows, asm)
				}
			}
		}
	}
}

// TestEuclideanPanelRejects: rows of unequal length, a row block off the
// four-row grid and a matrix of the wrong shape are refused.
func TestEuclideanPanelRejects(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	mustPanic("ragged rows", func() {
		var p tensor.EuclideanPanel
		p.Pack([][]float64{{1, 2}, {3}})
	})
	var p tensor.EuclideanPanel
	p.Pack([][]float64{{1}, {2}, {3}, {4}, {5}})
	mustPanic("block off the grid", func() { p.RowBlockInto(tensor.New(5, 5), 2) })
	mustPanic("block past the rows", func() { p.RowBlockInto(tensor.New(5, 5), 8) })
	mustPanic("wrong dst shape", func() { p.RowBlockInto(tensor.New(4, 5), 0) })
}

// FuzzEuclideanTile: the proximity matrix through the assembly tile and
// through the Go body equals VecDistance on arbitrary float64 bits. The
// input's first byte gives n (1–12), the second dim (1–64); the rest
// are the rows' raw float64 bits, eight bytes each, tiled over the rows
// in order. The checked-in corpus (testdata/fuzz/FuzzEuclideanTile)
// holds Inf against the same and the other Inf, NaN, signed zeros,
// squares that overflow and differences that are subnormal, and partial
// blocks of rows.
func FuzzEuclideanTile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, dim := 1+int(data[0])%12, 1+int(data[1])%64
		bits := data[2:]
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, dim)
			for p := range rows[i] {
				var w [8]byte
				for b := range w {
					if len(bits) > 0 {
						w[b] = bits[(8*(i*dim+p)+b)%len(bits)]
					}
				}
				rows[i][p] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
			}
		}
		for _, asm := range euclideanPaths() {
			checkEuclidean(t, "fuzz", rows, asm)
		}
	})
}
