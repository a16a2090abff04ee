package cluster

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"fedclust/internal/linalg"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// The cubic implementations that Agglomerate, CutBestSilhouette and
// assignAfter replaced, kept verbatim as oracles: the production code must
// reproduce their merges bit for bit and their cuts label for label.

func agglomerateNaive(dist *tensor.Tensor, linkage Linkage) *Dendrogram {
	n := dist.Shape[0]
	den := &Dendrogram{N: n}
	if n < 2 {
		return den
	}
	d := dist.Clone()
	active := make([]bool, n)
	size := make([]int, n)
	id := make([]int, n)
	for i := 0; i < n; i++ {
		active[i] = true
		size[i] = 1
		id[i] = i
	}
	nextID := n
	for step := 0; step < n-1; step++ {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if v := d.At(i, j); v < best {
					best, bi, bj = v, i, j
				}
			}
		}
		ni, nj := float64(size[bi]), float64(size[bj])
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			dik, djk := d.At(bi, k), d.At(bj, k)
			var nd float64
			switch linkage {
			case Single:
				nd = math.Min(dik, djk)
			case Complete:
				nd = math.Max(dik, djk)
			case Average:
				nd = (ni*dik + nj*djk) / (ni + nj)
			case Ward:
				nk := float64(size[k])
				tot := ni + nj + nk
				nd = math.Sqrt(((ni+nk)*dik*dik + (nj+nk)*djk*djk - nk*best*best) / tot)
			}
			d.Set(nd, bi, k)
			d.Set(nd, k, bi)
		}
		den.Merges = append(den.Merges, Merge{
			A: id[bi], B: id[bj], Distance: best, Size: size[bi] + size[bj],
		})
		size[bi] += size[bj]
		id[bi] = nextID
		nextID++
		active[bj] = false
	}
	return den
}

func assignAfterNaive(den *Dendrogram, applied int) []int {
	if applied < 0 {
		applied = 0
	}
	if applied > len(den.Merges) {
		applied = len(den.Merges)
	}
	parent := make(map[int]int, den.N+applied)
	var find func(x int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	for i := 0; i < applied; i++ {
		m := den.Merges[i]
		newID := den.N + i
		parent[find(m.A)] = newID
		parent[find(m.B)] = newID
	}
	labels := make([]int, den.N)
	next := 0
	seen := make(map[int]int)
	for i := 0; i < den.N; i++ {
		r := find(i)
		l, ok := seen[r]
		if !ok {
			l = next
			seen[r] = l
			next++
		}
		labels[i] = l
	}
	return labels
}

func cutBestSilhouetteNaive(den *Dendrogram, dist *tensor.Tensor, minK, maxK int, tol float64) []int {
	if minK < 2 {
		minK = 2
	}
	if maxK > den.N {
		maxK = den.N
	}
	if maxK < minK {
		return assignAfterNaive(den, den.N-1)
	}
	scores := make([]float64, 0, maxK-minK+1)
	best := math.Inf(-1)
	for k := minK; k <= maxK; k++ {
		s := Silhouette(dist, assignAfterNaive(den, den.N-k))
		scores = append(scores, s)
		if s > best {
			best = s
		}
	}
	for i, s := range scores {
		if s >= best-tol {
			return assignAfterNaive(den, den.N-minK-i)
		}
	}
	return assignAfterNaive(den, den.N-minK)
}

// fixture is one named proximity matrix of the differential suite.
type fixture struct {
	name string
	dist *tensor.Tensor
}

// symmetric builds an n×n matrix with a zero diagonal from f(i, j), i < j.
func symmetric(n int, f func(i, j int) float64) *tensor.Tensor {
	d := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := f(i, j)
			d.Data[i*n+j], d.Data[j*n+i] = v, v
		}
	}
	return d
}

func euclidean(n, dim int, r *rng.Rng) *tensor.Tensor {
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, dim)
		for j := range vecs[i] {
			vecs[i][j] = r.NormFloat64()
		}
	}
	return linalg.PairwiseDistances(linalg.Euclidean, vecs)
}

// differentialFixtures is every matrix the new code is held against the
// oracles on: random Euclidean at every n up to 64 and one n = 300,
// small-integer matrices (heavy ties), duplicate points (zero distances),
// grouped points (a clear best k) and all-equal distances.
func differentialFixtures(short bool) []fixture {
	r := rng.New(12)
	var fx []fixture
	for n := 0; n <= 64; n++ {
		fx = append(fx, fixture{fmt.Sprintf("euclid/n=%d", n), euclidean(n, 3, r)})
	}
	if !short {
		fx = append(fx, fixture{"euclid/n=300", euclidean(300, 5, r)})
	}
	for _, n := range []int{3, 5, 8, 13, 24, 40} {
		for _, levels := range []int{1, 2, 4} {
			fx = append(fx, fixture{fmt.Sprintf("ties/n=%d/levels=%d", n, levels),
				symmetric(n, func(i, j int) float64 { return float64(1 + r.Intn(levels)) })})
		}
	}
	for _, n := range []int{4, 9, 30} {
		vecs := make([][]float64, n)
		for i := range vecs {
			if i >= 3 && r.Intn(2) == 0 {
				vecs[i] = vecs[r.Intn(i)] // an exact duplicate of an earlier point
			} else {
				vecs[i] = []float64{r.NormFloat64(), r.NormFloat64()}
			}
		}
		fx = append(fx, fixture{fmt.Sprintf("duplicates/n=%d", n), linalg.PairwiseDistances(linalg.Euclidean, vecs)})
	}
	for _, n := range []int{12, 48} {
		vecs := make([][]float64, n)
		for i := range vecs {
			g := float64(i % 4)
			vecs[i] = []float64{40*g + r.NormFloat64(), -25*g + r.NormFloat64()}
		}
		fx = append(fx, fixture{fmt.Sprintf("groups/n=%d", n), linalg.PairwiseDistances(linalg.Euclidean, vecs)})
	}
	fx = append(fx, fixture{"all-equal/n=10", symmetric(10, func(i, j int) float64 { return 2.5 })})
	return fx
}

// silhouetteFixtures is the part of the differential set the silhouette
// oracles run on. They cost O(n³) per cut range, so of the random
// Euclidean matrices only n ≤ 16 stay; the tie, duplicate, grouped and
// all-equal matrices, where the incremental walk's rescans and
// tie-breaks are exercised, all stay.
func silhouetteFixtures() []fixture {
	var out []fixture
	for _, fx := range differentialFixtures(true) {
		if !strings.HasPrefix(fx.name, "euclid/") || fx.dist.Shape[0] <= 16 {
			out = append(out, fx)
		}
	}
	return out
}

var allLinkages = []Linkage{Single, Complete, Average, Ward}

func TestAgglomerateMatchesNaive(t *testing.T) {
	for _, fx := range differentialFixtures(testing.Short()) {
		for _, l := range allLinkages {
			got, want := Agglomerate(fx.dist, l), agglomerateNaive(fx.dist, l)
			if got.N != want.N || len(got.Merges) != len(want.Merges) {
				t.Fatalf("%s %v: %d merges over %d leaves, want %d over %d",
					fx.name, l, len(got.Merges), got.N, len(want.Merges), want.N)
			}
			for i, m := range got.Merges {
				// == on the struct compares Distance with ==: bit-identical
				// short of NaN and signed zeros, which no fixture produces.
				if m != want.Merges[i] {
					t.Fatalf("%s %v merge %d: got %+v, want %+v", fx.name, l, i, m, want.Merges[i])
				}
			}
		}
	}
}

func TestAssignAfterMatchesNaive(t *testing.T) {
	for _, fx := range differentialFixtures(true) {
		den := Agglomerate(fx.dist, Average)
		for applied := -1; applied <= den.N; applied++ {
			got, want := den.assignAfter(applied), assignAfterNaive(den, applied)
			if !slices.Equal(got, want) {
				t.Fatalf("%s applied=%d: got %v, want %v", fx.name, applied, got, want)
			}
		}
	}
}

func TestSilhouetteScoresMatchDefinition(t *testing.T) {
	for _, fx := range silhouetteFixtures() {
		n := fx.dist.Shape[0]
		if n < 2 {
			continue
		}
		for _, l := range allLinkages {
			den := Agglomerate(fx.dist, l)
			for _, span := range [][2]int{{2, n}, {2, n / 2}, {min(3, n), min(5, n)}} {
				minK, maxK := span[0], span[1]
				if maxK < minK {
					continue
				}
				scores := den.silhouetteScores(fx.dist, minK, maxK)
				if len(scores) != maxK-minK+1 {
					t.Fatalf("%s %v [%d,%d]: %d scores", fx.name, l, minK, maxK, len(scores))
				}
				for i, s := range scores {
					want := Silhouette(fx.dist, den.CutK(minK+i))
					if math.Abs(s-want) > 1e-12 {
						t.Fatalf("%s %v k=%d of [%d,%d]: score %v, Silhouette %v",
							fx.name, l, minK+i, minK, maxK, s, want)
					}
				}
			}
		}
	}
}

func TestCutBestSilhouetteMatchesNaive(t *testing.T) {
	for _, fx := range silhouetteFixtures() {
		n := fx.dist.Shape[0]
		if n == 0 {
			continue // CutK(1) of an empty dendrogram panics, before and after
		}
		for _, l := range allLinkages {
			den := Agglomerate(fx.dist, l)
			for _, c := range []struct {
				minK, maxK int
				tol        float64
			}{
				{2, n / 2, SilhouetteTolerance}, // what FedClust asks for
				{0, n, SilhouetteTolerance},     // minK clamps to 2
				{-3, n + 7, 0},                  // maxK clamps to n; strict argmax
				{2, 1, 0},                       // maxK < 2: one cluster
				{2, 0, SilhouetteTolerance},
				{3, 6, 0.2},
				{2, n - 1, 0},
			} {
				got := den.CutBestSilhouette(fx.dist, c.minK, c.maxK, c.tol)
				want := cutBestSilhouetteNaive(den, fx.dist, c.minK, c.maxK, c.tol)
				if !slices.Equal(got, want) {
					t.Fatalf("%s %v [%d,%d] tol=%v: got %v, want %v", fx.name, l, c.minK, c.maxK, c.tol, got, want)
				}
			}
		}
	}
}

func TestCutBestSilhouetteAllEqualPicksMinK(t *testing.T) {
	// Every distance equal: every point's a and b coincide, every score is
	// exactly 0, and the smallest admissible k wins — even at tol = 0.
	d := symmetric(10, func(i, j int) float64 { return 2.5 })
	den := Agglomerate(d, Average)
	for _, s := range den.silhouetteScores(d, 2, 10) {
		if s != 0 {
			t.Fatalf("all-equal distances scored %v, want exactly 0", s)
		}
	}
	for _, minK := range []int{2, 4} {
		if k := NumClusters(den.CutBestSilhouette(d, minK, 10, 0)); k != minK {
			t.Fatalf("all-equal distances, minK=%d: k = %d", minK, k)
		}
	}
}

func TestCutBestSilhouetteSingletonHeavy(t *testing.T) {
	// One tight pair and nine far-flung points: every cut but the last few
	// is almost all singletons (each contributing 0).
	vecs := [][]float64{{0, 0}, {0.01, 0}}
	for i := 1; i <= 9; i++ {
		vecs = append(vecs, []float64{math.Pow(3, float64(i)), float64(i * i)})
	}
	d := linalg.PairwiseDistances(linalg.Euclidean, vecs)
	for _, l := range allLinkages {
		den := Agglomerate(d, l)
		for _, tol := range []float64{0, SilhouetteTolerance} {
			got := den.CutBestSilhouette(d, 2, len(vecs), tol)
			if want := cutBestSilhouetteNaive(den, d, 2, len(vecs), tol); !slices.Equal(got, want) {
				t.Fatalf("%v tol=%v: got %v, want %v", l, tol, got, want)
			}
		}
	}
}

func TestAgglomerateRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := symmetric(4, func(i, j int) float64 { return float64(i + j) })
		d.Data[1*4+2], d.Data[2*4+1] = bad, bad
		msg := panicMessage(func() { Agglomerate(d, Average) })
		if want := fmt.Sprintf("cluster: non-finite distance d[1][2]=%v", bad); msg != want {
			t.Fatalf("Agglomerate on %v panicked with %q, want %q", bad, msg, want)
		}
	}
	// An all-+Inf matrix used to die with "index out of range [-1]".
	inf := symmetric(3, func(i, j int) float64 { return math.Inf(1) })
	if msg := panicMessage(func() { Agglomerate(inf, Single) }); !strings.HasPrefix(msg, "cluster: non-finite distance d[0][1]=") {
		t.Fatalf("all-Inf matrix panicked with %q", msg)
	}
	// Finite input whose Ward update overflows: a message, not an index error.
	huge := symmetric(3, func(i, j int) float64 { return 1e300 })
	if msg := panicMessage(func() { Agglomerate(huge, Ward) }); msg != "cluster: distances overflowed during agglomeration" {
		t.Fatalf("overflowing Ward update panicked with %q", msg)
	}
}

// panicMessage runs f and returns what it panicked with, "" if it did not.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func TestFormationAllocationsIndependentOfN(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{32, 256} {
		d := euclidean(n, 4, r)
		den := Agglomerate(d, Average)
		if a := testing.AllocsPerRun(5, func() { Agglomerate(d, Average) }); a > 8 {
			t.Errorf("Agglomerate at n=%d: %v allocations, want <= 8", n, a)
		}
		if a := testing.AllocsPerRun(5, func() { den.CutBestSilhouette(d, 2, n/2, SilhouetteTolerance) }); a > 8 {
			t.Errorf("CutBestSilhouette at n=%d: %v allocations, want <= 8", n, a)
		}
	}
}

// BenchmarkFormation is the server side of the one-shot phase — proximity
// matrix, agglomeration, silhouette cut over k = 2..n/2 — on four groups
// of points. Each step is quadratic in n: doubling n costs about 4×.
func BenchmarkFormation(b *testing.B) {
	for _, n := range []int{128, 512, 2048} {
		r := rng.New(1)
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = make([]float64, 16)
			for j := range vecs[i] {
				vecs[i][j] = r.NormFloat64()
			}
			vecs[i][i%4] += 8
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := linalg.PairwiseDistances(linalg.Euclidean, vecs)
				labels := Agglomerate(d, Average).CutBestSilhouette(d, 2, n/2, SilhouetteTolerance)
				if k := NumClusters(labels); k != 4 {
					b.Fatalf("n=%d: cut found %d clusters, want 4", n, k)
				}
			}
		})
	}
}
