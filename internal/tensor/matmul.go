package tensor

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"fedclust/internal/sched"
)

// parallelThreshold is the minimum number of multiply-adds in a matmul
// before the work is split across the shared executor. Small products
// stay on the calling goroutine to avoid scheduling overhead.
const parallelThreshold = 64 * 1024

// parallelThreshold32 is the float32 analogue of parallelThreshold. The
// float32 kernels move twice the elements per cache line and (on AVX2
// hosts) eight per instruction, so a product must be several times
// larger before the executor handoff pays for itself.
const parallelThreshold32 = 4 * parallelThreshold

// MatMulInto computes dst = a(m×k) · b(k×n) for rank-2 tensors,
// parallelizing over row blocks when the product is large enough. dst
// must not alias a or b and must have shape (a.rows, b.cols).
//
// All three products (this one, MatMulTransBInto, MatMulTransAInto) run
// one generic body per row kernel in both element types: each output
// element is one chain over p in increasing order, the product rounded
// before the sum, zero multiplicands skipped. That order is fixed by the
// operand shapes alone, so parallel and serial runs are bit-identical.
// The assembly under the kernels (the a·bᵀ tile and the axpy, one body
// per element type) keeps the order, both roundings and the skip, so the
// gate changes no bit either.
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
	runRows(plain, dst, a, b, m, m*n*k)
}

// variant names a matmul form.
type variant int

const (
	plain variant = iota
	transB
	transA
	transAAdd
)

// variantRows computes rows [lo, hi) of variant v: the one kernel call of
// the serial and the parallel path alike, so the dispatch needs no closure.
func variantRows[T Float](v variant, dst, a, b *Of[T], lo, hi int) {
	switch v {
	case plain:
		matmulRows(dst, a, b, lo, hi)
	case transB:
		matmulTransBRows(dst, a, b, lo, hi)
	case transA:
		matmulTransARows(dst, a, b, lo, hi)
	case transAAdd:
		matmulTransAAddRows(dst, a, b, lo, hi)
	}
}

// runRows picks the element type's parallel slot: a pointer type switch
// per matmul call, never per element.
func runRows[T Float](v variant, dst, a, b *Of[T], m, work int) {
	switch d := any(dst).(type) {
	case *Tensor:
		par64.rows(v, d, any(a).(*Tensor), any(b).(*Tensor), m, work)
	case *Tensor32:
		par32.rows(v, d, any(a).(*Tensor32), any(b).(*Tensor32), m, work)
	}
}

// cachedProcs caches runtime.GOMAXPROCS(0) so the splitRows gate — on
// the hot path of every matmul, parallel or not — costs one atomic load
// instead of a runtime call. refreshProcs re-reads the live value inside
// parallelRows after a successful executor acquire (off the per-call hot
// path), so a mid-process GOMAXPROCS change is picked up at the next
// parallel region; the lag is harmless because the partitioning never
// affects results, only which path computes them.
var cachedProcs atomic.Int32

// procsHint returns the cached GOMAXPROCS value, reading the runtime
// only on first use.
func procsHint() int {
	if p := cachedProcs.Load(); p > 0 {
		return int(p)
	}
	return refreshProcs()
}

// refreshProcs re-reads GOMAXPROCS from the runtime and updates the cache.
func refreshProcs() int {
	p := runtime.GOMAXPROCS(0)
	cachedProcs.Store(int32(p))
	return p
}

// parSlot is the operand slot of one element type's in-flight parallel
// region. It is guarded by the executor claim: only the goroutine that
// holds sched.Default()'s claim writes it, and it is cleared before the
// claim is released, so the executor's single-region discipline makes
// the whole dispatch closure-free and allocation-free.
type parSlot[T Float] struct {
	// threshold is the minimum number of multiply-adds before a product
	// is worth spreading across the executor.
	threshold int
	// runBlock is the slot's own block method, bound once at init — the
	// persistent task executor workers run.
	runBlock func(_, blk int)

	v         variant
	dst, a, b *Of[T]
	chunk, m  int
}

var (
	par64 = newParSlot[float64](parallelThreshold)
	par32 = newParSlot[float32](parallelThreshold32)
)

func newParSlot[T Float](threshold int) *parSlot[T] {
	d := &parSlot[T]{threshold: threshold}
	d.runBlock = d.block
	return d
}

// block runs block blk of the in-flight region: rows
// [blk*chunk, min((blk+1)*chunk, m)).
func (d *parSlot[T]) block(_, blk int) {
	lo := blk * d.chunk
	hi := lo + d.chunk
	if hi > d.m {
		hi = d.m
	}
	variantRows(d.v, d.dst, d.a, d.b, lo, hi)
}

// rows computes all m rows of dst for variant v: across the executor when
// the product (work multiply-adds) is large enough and the executor is
// free, on the calling goroutine otherwise. Small products — the
// per-batch products inside a training step — stay serial, which
// performs no scheduling work and no allocations.
func (d *parSlot[T]) rows(v variant, dst, a, b *Of[T], m, work int) {
	if work < d.threshold || procsHint() < 2 || m < 2 || !d.parallel(v, dst, a, b, m) {
		variantRows(v, dst, a, b, 0, m)
	}
}

// parallel runs variant v over contiguous row blocks of [0, m) on the
// shared executor and reports whether it ran. It refuses — returning
// false, caller must run the serial kernel — when the executor is
// unavailable: the call is nested inside a running region (a kernel
// invoked from a client task of the round engine, or from an Env pinned
// to a private pool) or racing a concurrent region. That refusal is what
// eliminates nested oversubscription. The partitioning never affects
// results: every output element is produced by exactly one block with a
// fixed per-element summation order, so parallel and serial runs are
// bit-identical.
func (d *parSlot[T]) parallel(v variant, dst, a, b *Of[T], m int) bool {
	if sched.Busy() {
		return false
	}
	p := sched.Default()
	if !p.TryAcquire() {
		return false
	}
	defer p.Release()
	width := refreshProcs()
	if width > m {
		width = m
	}
	chunk := (m + width - 1) / width
	blocks := (m + chunk - 1) / chunk
	d.v, d.dst, d.a, d.b = v, dst, a, b
	d.chunk, d.m = chunk, m
	p.RunAcquired(blocks, width, d.runBlock)
	d.dst, d.a, d.b = nil, nil, nil
	return true
}

// MatMulTransBInto computes dst = a · bᵀ for rank-2 tensors without
// materializing the transpose: a is (m, k), b is (n, k), dst is (m, n)
// and must not alias a or b. Each output element is the dot product of an
// a-row with a b-row, summed over p in increasing order with the same
// skip-zero rule as matmulRows, so the result is bit-identical to
// MatMulInto(dst, a, Transpose(b)).
func MatMulTransBInto[T Float](dst, a, b *Of[T]) {
	m, k, n := transBDims(dst, a, b)
	runRows(transB, dst, a, b, m, m*n*k)
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

// TransBPanel is the b operand of a product a · bᵀ taken against many a
// in turn — a convolution's weights against each strip of its unrolled
// input. Pack lays b out for the kernel once; MulInto then runs one
// product per a on the calling goroutine, since a strip is L1-sized and
// too small to split across workers. On the tile path the layout is the
// lanes-wide panel of every column block, the one MatMulTransBInto packs
// on its stack per call; the Go body reads b's rows as they are. Either
// way MulInto's bits are MatMulTransBInto's.
type TransBPanel[T Float] struct {
	b     *Of[T]
	panel []T // tile path: column block j/lanes at j·k
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

// MulInto computes dst = a · bᵀ for the packed b, on the calling
// goroutine: whole groups of four rows through the tile against the
// packed panels, the rest through the Go body, as matmulTransBRows splits.
func (p *TransBPanel[T]) MulInto(dst, a *Of[T]) {
	m, k, n := transBDims(dst, a, p.b)
	lo := 0
	if useASM && len(p.panel) > 0 && m >= 4 {
		lo = m &^ 3
		w := lanes[T]()
		for j := 0; j < n; j += w {
			tileBlock(dst.Data, a.Data, p.panel[j*k:][:w*k], k, n, j, 0, lo)
		}
	}
	matmulTransBRowsGo(dst, a, p.b, lo, m)
}

// matmulTransBRows computes rows [lo,hi) of dst = a·bᵀ: on AVX2 hosts
// whole groups of four rows go through the assembly tile, the rest — the
// (hi-lo) mod 4 tail, blocks of fewer than four rows, k beyond the panel
// bound — through the Go body. Both produce the same bits for every
// element, so where a row block is cut decides nothing.
func matmulTransBRows[T Float](dst, a, b *Of[T], lo, hi int) {
	if k := a.Shape[1]; useASM && hi-lo >= 4 && k > 0 && k <= transBPanelK {
		mid := lo + (hi-lo)&^3
		transBTiles(dst.Data, a.Data, b.Data, k, dst.Shape[1], lo, mid)
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
// four bodies identically; the golden-fingerprint suite enforces it.
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

// MatMulTransAInto computes dst = aᵀ · b without materializing the
// transpose: a is (k, m), b is (k, n), dst is (m, n) and must not alias
// a or b. Row i of dst accumulates a's column i against b's rows over p
// in increasing order with the same skip-zero rule as matmulRows, so the
// result is bit-identical to MatMulInto(dst, Transpose(a), b).
func MatMulTransAInto[T Float](dst, a, b *Of[T]) {
	m, k, n := transADims(dst, a, b)
	runRows(transA, dst, a, b, m, m*n*k)
}

// MatMulTransAAddInto computes dst += aᵀ · b: every element of dst goes
// on from its current value with the chain MatMulTransAInto starts at
// zero. So a product cut along k (the rows of a and b) into consecutive
// blocks and added block by block, in order, into a zeroed dst is
// bit-identical to MatMulTransAInto over the whole, wherever the blocks
// are cut.
func MatMulTransAAddInto[T Float](dst, a, b *Of[T]) {
	m, k, n := transADims(dst, a, b)
	runRows(transAAdd, dst, a, b, m, m*n*k)
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

// matmulTransARows computes rows [lo,hi) of dst = aᵀ·b: it zeroes them,
// then accumulates.
func matmulTransARows[T Float](dst, a, b *Of[T], lo, hi int) {
	n := dst.Shape[1]
	clear(dst.Data[lo*n : hi*n])
	matmulTransAAddRows(dst, a, b, lo, hi)
}

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
// axpyMinN accumulates through the element type's assembly axpy —
// product rounded, then the sum, per element as in the loop it stands in
// for — and through the loop itself otherwise.
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
			for _, p := range terms[:nz] {
				av, bRow := a[i*si+p*sp], b[p*n:(p+1)*n]
				if wide {
					axpyAVX2(&outRow[0], &bRow[0], av, n)
					continue
				}
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
