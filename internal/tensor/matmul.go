package tensor

import "fmt"

// MatMulInto computes dst = a(m×k) · b(k×n) for rank-2 tensors on the
// calling goroutine. dst must not alias a or b and must have shape
// (a.rows, b.cols).
//
// All three products (this one, MatMulTransBInto, MatMulTransAAddInto)
// run one generic body per row kernel in both element types: each output
// element is one chain over p in increasing order, the product rounded
// before the sum, zero multiplicands skipped. That order is fixed by the
// operand shapes alone. The assembly under the kernels (the a·bᵀ tile
// and the axpy, one body per element type) keeps the order, both
// roundings and the skip, so the gate changes no bit. Parallelism lives
// one level up, across clients (DESIGN.md §6).
func MatMulInto[T Float](dst, a, b *Of[T]) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(dst.Shape) != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v · %v", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	matmulRows(dst, a, b, 0, m)
}

// MatMulTransBInto computes dst = a · bᵀ for rank-2 tensors without
// materializing the transpose: a is (m, k), b is (n, k), dst is (m, n)
// and must not alias a or b. Each output element is the dot product of an
// a-row with a b-row, summed over p in increasing order with the same
// skip-zero rule as matmulRows, so the result is bit-identical to
// MatMulInto(dst, a, Transpose(b)).
func MatMulTransBInto[T Float](dst, a, b *Of[T]) {
	m, _, _ := transBDims(dst, a, b)
	matmulTransBRows(dst, a, b, 0, m)
}

// MatMulTransB32Into is MatMulTransBInto on float32 operands.
func MatMulTransB32Into(dst, a, b *Tensor32) { MatMulTransBInto(dst, a, b) }

// transBDims checks the shapes of dst = a · bᵀ and returns m, k, n.
func transBDims[T Float](dst, a, b *Of[T]) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(dst.Shape) != 2 {
		panic("tensor: MatMulTransB requires rank-2 tensors")
	}
	m, k = a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v · %vᵀ", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransB dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	return m, k, n
}

// matmulTransBRows computes rows [lo,hi) of dst = a·bᵀ: on AVX2 hosts
// through the assembly tile, packing the smaller operand. A block of
// fewer rows than b has (a dense layer's batch against its weights)
// packs its own rows and runs all of them through the tile, four of b's
// rows at a time; otherwise b is packed and whole groups of four rows go
// through the tile. The rest — the (hi-lo) mod 4 tail, blocks of fewer
// than four rows, k beyond the panel bound — runs the Go body. All three
// produce the same bits for every element, so neither the form nor where
// a row block is cut decides anything.
func matmulTransBRows[T Float](dst, a, b *Of[T], lo, hi int) {
	if k, n := a.Shape[1], dst.Shape[1]; useASM && hi-lo >= 4 && k > 0 && k <= transBPanelK {
		if hi-lo < n { // so n > 4
			transBTilesPackA(dst.Data, a.Data, b.Data, k, n, lo, hi)
			return
		}
		mid := lo + (hi-lo)&^3
		transBTiles(dst.Data, a.Data, b.Data, k, n, lo, mid)
		lo = mid
	}
	matmulTransBRowsGo(dst, a, b, lo, hi)
}

// matmulTransBRowsGo computes rows [lo,hi) of dst = a·bᵀ as dot products of
// contiguous a-rows and b-rows, four b-rows at a time. The blocking only
// adds independent accumulator chains (ILP); each output element is still
// summed over p in increasing order with the skip-zero rule, so results
// are bit-identical to the unblocked form.
//
// The unrolled 3/2/1 remainder cases are load-bearing, not residue: for
// small-n operands (a convolution with few output channels, e.g.
// LeNet-5's first conv) the remainder IS the whole computation, and the
// multi-chain unrolls are what keep it latency-hidden — a single-chain
// scalar remainder measured ~1.7× slower end to end on LeNet forward.
// When touching the summation rule (p order, skip-zero), update ALL
// four bodies identically, and convRowsGo, the convolution's form of
// them; the golden-fingerprint suite enforces it.
//
// This is the specification of the product: the non-amd64 path, the
// fallback beside the assembly tile, and what the oracle tests compare
// the tile against with ==.
func matmulTransBRowsGo[T Float](dst, a, b *Of[T], lo, hi int) {
	k, n := a.Shape[1], dst.Shape[1]
	for i := lo; i < hi; i++ {
		aRow := a.Data[i*k : (i+1)*k]
		outRow := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			b3 := b.Data[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 T
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				s0 += T(av * b0[p])
				s1 += T(av * b1[p])
				s2 += T(av * b2[p])
				s3 += T(av * b3[p])
			}
			outRow[j], outRow[j+1], outRow[j+2], outRow[j+3] = s0, s1, s2, s3
		}
		switch n - j {
		case 3:
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			var s0, s1, s2 T
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				s0 += T(av * b0[p])
				s1 += T(av * b1[p])
				s2 += T(av * b2[p])
			}
			outRow[j], outRow[j+1], outRow[j+2] = s0, s1, s2
		case 2:
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			var s0, s1 T
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				s0 += T(av * b0[p])
				s1 += T(av * b1[p])
			}
			outRow[j], outRow[j+1] = s0, s1
		case 1:
			b0 := b.Data[j*k : (j+1)*k]
			var s0 T
			for p, av := range aRow {
				if av == 0 {
					continue
				}
				s0 += T(av * b0[p])
			}
			outRow[j] = s0
		}
	}
}

// MatMulTransAAddInto computes dst += aᵀ · b without materializing the
// transpose: a is (k, m), b is (k, n), dst is (m, n) and must not alias
// a or b. Row i of dst goes on from its current value, accumulating a's
// column i against b's rows over p in increasing order with the same
// skip-zero rule as matmulRows. Into a dst of +0 that is bit-identical
// to MatMulInto(dst, Transpose(a), b) — a chain from +0 never reaches −0
// (DESIGN.md §10), so starting from the +0 already in dst is starting
// from zero — and a product cut along k (the rows of a and b) into
// consecutive blocks and added block by block, in order, is
// bit-identical to the whole, wherever the blocks are cut.
func MatMulTransAAddInto[T Float](dst, a, b *Of[T]) {
	m, _, _ := transADims(dst, a, b)
	matmulTransAAddRows(dst, a, b, 0, m)
}

// transADims checks the shapes of dst = aᵀ · b and returns m, k, n.
func transADims[T Float](dst, a, b *Of[T]) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(dst.Shape) != 2 {
		panic("tensor: MatMulTransA requires rank-2 tensors")
	}
	k, m = a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %vᵀ · %v", a.Shape, b.Shape))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransA dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	return m, k, n
}

// axpyMinN is the shortest output row handed to the assembly axpy: two
// float64 vector steps, one float32 step. Shorter rows keep the inline
// loop.
const axpyMinN = 8

// matmulTransAAddRows accumulates aᵀ·b into rows [lo,hi) of dst,
// streaming a's column i against b's rows.
func matmulTransAAddRows[T Float](dst, a, b *Of[T], lo, hi int) {
	k, m := a.Shape[0], a.Shape[1]
	axpyRows(dst.Data, a.Data, b.Data, k, dst.Shape[1], 1, m, lo, hi)
}

// matmulRows computes rows [lo,hi) of dst = a·b using an ikj loop order
// that streams b rows sequentially (cache-friendly without explicit
// tiling): it zeroes them, then accumulates a's row i against b's rows.
func matmulRows[T Float](dst, a, b *Of[T], lo, hi int) {
	k, n := a.Shape[1], b.Shape[1]
	clear(dst.Data[lo*n : hi*n])
	axpyRows(dst.Data, a.Data, b.Data, k, n, k, 1, lo, hi)
}

// axpyRows accumulates Σ_p a(i,p)·b[p] into rows [lo,hi) of dst (n wide),
// p ascending over the k rows of b, where a(i,p) = a[i·si + p·sp]: a's
// row i for a·b (si = k, sp = 1), its column i for aᵀ·b (si = 1, sp = m).
// A zero a(i,p) skips its term: each run of up to len(terms) p first
// lists its non-zero ones without a branch (a zero is a coin flip in a
// ReLU gradient), then accumulates them. On AVX2 hosts a row of at least
// axpyMinN accumulates four listed terms per call of the element type's
// assembly axpy — each product rounded, then its sum, per element and in
// p order as in the loop it stands in for — and through the loop itself
// otherwise.
func axpyRows[T Float](dst, a, b []T, k, n, si, sp, lo, hi int) {
	wide := useASM && n >= axpyMinN
	var terms [64]int
	for i := lo; i < hi; i++ {
		outRow := dst[i*n : (i+1)*n]
		for p0 := 0; p0 < k; p0 += len(terms) {
			nz := 0
			for p := p0; p < min(p0+len(terms), k); p++ {
				terms[nz&(len(terms)-1)] = p // nz < len(terms) here; the mask proves it
				nz += b2i(a[i*si+p*sp] != 0)
			}
			if wide {
				for t := 0; t < nz; t += 4 {
					var x [4]*T
					var av [4]T
					group := terms[t:min(t+4, nz)]
					for u, p := range group {
						x[u&3], av[u&3] = &b[p*n], a[i*si+p*sp] // u < 4; the mask proves it
					}
					axpyAVX2(&outRow[0], &x, &av, len(group), n)
				}
				continue
			}
			for _, p := range terms[:nz] {
				av, bRow := a[i*si+p*sp], b[p*n:(p+1)*n]
				for j, bv := range bRow {
					outRow[j] += T(av * bv)
				}
			}
		}
	}
}

// b2i is 1 for true, 0 for false; inlined, it compiles to a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Transpose returns the transpose of a rank-2 tensor as a new tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic("tensor: Transpose requires a rank-2 tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		for j, v := range row {
			out.Data[j*m+i] = v
		}
	}
	return out
}
