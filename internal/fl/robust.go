package fl

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Aggregator is a selectable server-side aggregation strategy — the
// robust layer at the engine's Gather/GatherCluster seam. Aggregate
// folds the reported vectors (with their report weights, which carry the
// scenario's partial-epoch done/E scaling) into dst and returns how many
// inputs the strategy suspected as outliers this call: the vectors it
// deliberately excluded from the combine (per-aggregator semantics are
// documented on each implementation; the engine adds non-finite-masked
// uplinks on top and feeds the sum to the control plane).
//
// Implementations may keep internal scratch and are therefore NOT safe
// for concurrent use — the engine aggregates serially, between parallel
// phases, which is the only place they run. dst must not alias any
// input. Like WeightedAverageInto, Aggregate must be a pure function of
// (vecs, ws): bit-identical results across worker counts and resume
// points are part of the engine's determinism contract.
type Aggregator interface {
	// Name identifies the strategy and its parameters (e.g.
	// "trimmed(0.2)") — checkpoints record it so a resume under a
	// different defense is refused.
	Name() string
	Aggregate(dst []float64, vecs [][]float64, ws []float64) (suspects int)
}

// TrimmedMean is the coordinate-wise trimmed weighted mean: at each
// coordinate the k = ⌊Frac·n⌋ smallest and k largest values are dropped
// and the survivors averaged by their report weights. With k = 0 (fewer
// than 1/Frac inputs, or Frac 0) it delegates to WeightedAverageInto,
// bit-identically — the "equals plain averaging when the byzantine
// fraction is 0" property. Suspects 2k per call: the per-coordinate trim
// breadth (trimmed coordinates need not belong to the same client).
type TrimmedMean struct {
	// Frac is the assumed byzantine fraction: the trim count is
	// ⌊Frac·n⌋ per side, clamped so at least one value survives.
	Frac float64

	perm []int // scratch: value ordering per coordinate
}

// Name implements Aggregator.
func (t *TrimmedMean) Name() string { return fmt.Sprintf("trimmed(%g)", t.Frac) }

// Aggregate implements Aggregator.
func (t *TrimmedMean) Aggregate(dst []float64, vecs [][]float64, ws []float64) int {
	n := len(vecs)
	k := int(t.Frac * float64(n))
	if 2*k >= n {
		k = (n - 1) / 2
	}
	if k <= 0 {
		WeightedAverageInto(dst, vecs, ws)
		return 0
	}
	checkRobustInputs(dst, vecs, ws)
	if cap(t.perm) < n {
		t.perm = make([]int, n)
	}
	perm := t.perm[:n]
	for j := range dst {
		for i := range perm {
			perm[i] = i
		}
		sortByCoord(perm, vecs, j)
		var sum, total float64
		for _, i := range perm[k : n-k] {
			sum += float64(ws[i] * vecs[i][j])
			total += ws[i]
		}
		if total > 0 {
			dst[j] = sum / total
		} else {
			// Every surviving weight is zero (all-straggler trims):
			// fall back to the unweighted mean of the survivors.
			for _, i := range perm[k : n-k] {
				sum += vecs[i][j]
			}
			dst[j] = sum / float64(n-2*k)
		}
	}
	return 2 * k
}

// Median is the coordinate-wise weighted median: at each coordinate the
// value where the cumulative report weight first reaches half the total,
// scanning values ascending (ties broken by input index). A median is an
// order statistic, so a single arbitrarily corrupted coordinate cannot
// move it past the honest majority's values. Suspects 0: nothing is
// explicitly excluded — outvoted coordinates simply do not surface.
type Median struct {
	perm []int // scratch: value ordering per coordinate
}

// Name implements Aggregator.
func (*Median) Name() string { return "median" }

// Aggregate implements Aggregator.
func (m *Median) Aggregate(dst []float64, vecs [][]float64, ws []float64) int {
	n := len(vecs)
	checkRobustInputs(dst, vecs, ws)
	var total float64
	allZero := true
	for _, w := range ws {
		total += w
		if w > 0 {
			allZero = false
		}
	}
	if cap(m.perm) < n {
		m.perm = make([]int, n)
	}
	perm := m.perm[:n]
	for j := range dst {
		for i := range perm {
			perm[i] = i
		}
		sortByCoord(perm, vecs, j)
		half := total / 2
		if allZero {
			// Degenerate all-zero weights: unweighted median.
			dst[j] = vecs[perm[(n-1)/2]][j]
			continue
		}
		var cum float64
		dst[j] = vecs[perm[n-1]][j]
		for _, i := range perm {
			cum += ws[i]
			if cum >= half {
				dst[j] = vecs[i][j]
				break
			}
		}
	}
	return 0
}

// Krum implements Krum / multi-Krum (Blanchard et al. 2017): each input
// is scored by the sum of its squared distances to its n−f−2 nearest
// peers (f = ⌊Frac·n⌋ assumed byzantine), and the M lowest-scored inputs
// (ties broken by index) are selected; dst is their report-weighted
// average (M = 1: a copy of the single selected vector, classic Krum).
// M < 1 selects adaptively: m = n − f, i.e. drop exactly the f most
// outlying updates and average the rest — the multi-Krum setting that
// preserves benign accuracy under non-IID clients, where classic Krum's
// single-winner choice discards every other client's contribution. Krum
// needs n ≥ 3 and n − f − 2 ≥ 1 to score anything; smaller gathers (tiny
// clusters) fall back to the plain weighted mean, deterministically.
// Suspects n − selected. O(n²·dim) — see the pinned benchmark.
type Krum struct {
	// Frac is the assumed byzantine fraction; M the multi-Krum selection
	// size (< 1: adaptive n − f).
	Frac float64
	M    int

	dists  []float64 // scratch: n×n squared-distance matrix
	scores []float64
	order  []int
	selVec [][]float64
	selWs  []float64
}

// Name implements Aggregator.
func (k *Krum) Name() string {
	if k.M < 1 {
		return fmt.Sprintf("krum(%g,n-f)", k.Frac)
	}
	return fmt.Sprintf("krum(%g,%d)", k.Frac, k.M)
}

// Aggregate implements Aggregator.
func (k *Krum) Aggregate(dst []float64, vecs [][]float64, ws []float64) int {
	n := len(vecs)
	checkRobustInputs(dst, vecs, ws)
	f := int(k.Frac * float64(n))
	if f < 0 {
		f = 0
	}
	closest := n - f - 2
	if n < 3 || closest < 1 {
		WeightedAverageInto(dst, vecs, ws)
		return 0
	}
	m := k.M
	if m < 1 {
		m = n - f // adaptive: drop the f most outlying, average the rest
	}
	if m > n {
		m = n
	}
	if cap(k.dists) < n*n {
		k.dists = make([]float64, n*n)
		k.scores = make([]float64, n)
		k.order = make([]int, n)
	}
	dists, scores, order := k.dists[:n*n], k.scores[:n], k.order[:n]
	for a := 0; a < n; a++ {
		dists[a*n+a] = 0
		for b := a + 1; b < n; b++ {
			var s float64
			va, vb := vecs[a], vecs[b]
			for j := range va {
				d := va[j] - vb[j]
				s += float64(d * d)
			}
			dists[a*n+b], dists[b*n+a] = s, s
		}
	}
	for a := 0; a < n; a++ {
		// Score = sum of the `closest` smallest distances to peers.
		row := order[:0]
		for b := 0; b < n; b++ {
			if b != a {
				row = append(row, b)
			}
		}
		sortByKey(row, dists[a*n:a*n+n])
		var s float64
		for _, b := range row[:closest] {
			s += dists[a*n+b]
		}
		scores[a] = s
	}
	for i := range order {
		order[i] = i
	}
	sortByKey(order, scores)
	if m == 1 {
		copy(dst, vecs[order[0]])
		return n - 1
	}
	k.selVec = k.selVec[:0]
	k.selWs = k.selWs[:0]
	// Weighted-average the selected set in input order (not score
	// order), so the accumulation sequence is a function of membership
	// alone.
	sel := order[:m]
	sort.Ints(sel)
	for _, i := range sel {
		k.selVec = append(k.selVec, vecs[i])
		k.selWs = append(k.selWs, ws[i])
	}
	WeightedAverageInto(dst, k.selVec, k.selWs)
	return n - m
}

// sortByCoord orders perm ascending by (vecs[i][j], i). Insertion sort:
// a gather holds one entry per reporting client — small — and this runs
// once per coordinate per combine, so the sort.Slice closure allocations
// it replaces would dominate the round's allocation budget. The index
// tie-break makes the order total, hence deterministic under duplicates.
func sortByCoord(perm []int, vecs [][]float64, j int) {
	for a := 1; a < len(perm); a++ {
		x := perm[a]
		vx := vecs[x][j]
		b := a - 1
		for b >= 0 {
			y := perm[b]
			if vy := vecs[y][j]; vy < vx || (vy == vx && y < x) {
				break
			}
			perm[b+1] = y
			b--
		}
		perm[b+1] = x
	}
}

// sortByKey orders idx ascending by (key[i], i), allocation-free like
// sortByCoord.
func sortByKey(idx []int, key []float64) {
	for a := 1; a < len(idx); a++ {
		x := idx[a]
		kx := key[x]
		b := a - 1
		for b >= 0 {
			y := idx[b]
			if ky := key[y]; ky < kx || (ky == kx && y < x) {
				break
			}
			idx[b+1] = y
			b--
		}
		idx[b+1] = x
	}
}

// checkRobustInputs enforces the shared WeightedAverageInto contract for
// the robust strategies: non-empty input, consistent lengths, dst free
// of aliasing, non-negative weights.
func checkRobustInputs(dst []float64, vecs [][]float64, ws []float64) {
	if len(vecs) == 0 {
		panic("fl: robust aggregation of nothing")
	}
	if len(vecs) != len(ws) {
		panic(fmt.Sprintf("fl: %d vectors but %d weights", len(vecs), len(ws)))
	}
	dim := len(vecs[0])
	if len(dst) != dim {
		panic(fmt.Sprintf("fl: aggregation buffer length %d, want %d", len(dst), dim))
	}
	for i, w := range ws {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("fl: invalid weight %v", w))
		}
		if len(vecs[i]) != dim {
			panic(fmt.Sprintf("fl: vector %d has length %d, want %d", i, len(vecs[i]), dim))
		}
		if dim > 0 && overlaps(dst, vecs[i]) {
			panic(fmt.Sprintf("fl: aggregation buffer aliases input vector %d", i))
		}
	}
}

// AggregatorNames lists the selectable strategies in flag order. "krum"
// is the classic single-winner rule; "multi-krum" the adaptive n−f
// selection (the accuracy-preserving default in the hostile sweep).
var AggregatorNames = []string{"mean", "trimmed", "median", "krum", "multi-krum"}

// NewAggregator builds a strategy by flag name. frac is the assumed
// byzantine fraction for the strategies that take one (trimmed, krum);
// mean and median ignore it. "mean" (and "") returns nil — the engine's
// fast path — so round-tripping a benign config through the flag layer
// costs nothing.
func NewAggregator(name string, frac float64) (Aggregator, error) {
	if math.IsNaN(frac) || frac < 0 || frac >= 0.5 {
		return nil, fmt.Errorf("fl: aggregator byzantine fraction %v out of [0, 0.5)", frac)
	}
	switch strings.ToLower(name) {
	case "", "mean", "fedavg":
		return nil, nil
	case "trimmed", "trimmed-mean":
		return &TrimmedMean{Frac: frac}, nil
	case "median", "coordinate-median":
		return &Median{}, nil
	case "krum":
		return &Krum{Frac: frac, M: 1}, nil
	case "multi-krum", "multikrum":
		return &Krum{Frac: frac}, nil
	default:
		return nil, fmt.Errorf("fl: unknown aggregator %q (want %s)", name, strings.Join(AggregatorNames, ", "))
	}
}

// AggregatorName returns the checkpoint-identity name of a strategy
// (nil → "mean").
func AggregatorName(a Aggregator) string {
	if a == nil {
		return "mean"
	}
	return a.Name()
}
