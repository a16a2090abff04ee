package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fedclust/internal/rng"
)

// topKSelectOracle is TopKSelect before the sampled bound: a quickselect
// over a copy of every score, then a pass over all n that keeps the
// scores above the threshold and threshold-valued ones lowest index
// first.
func topKSelectOracle(idx []uint32, scratch, scores []float64, k int) ([]uint32, []float64) {
	n := len(scores)
	if k > n {
		k = n
	}
	idx = idx[:0]
	if k <= 0 {
		return idx, scratch
	}
	if cap(idx) < k {
		idx = make([]uint32, 0, k)
	}
	if k == n {
		for i := 0; i < n; i++ {
			idx = append(idx, uint32(i))
		}
		return idx, scratch
	}
	scratch = scratch[:0]
	for _, s := range scores {
		if math.IsNaN(s) {
			s = math.Inf(1)
		}
		scratch = append(scratch, s)
	}
	thr := selectKthLargest(scratch, k)
	greater := 0
	for _, s := range scores {
		if math.IsNaN(s) {
			s = math.Inf(1)
		}
		if s > thr {
			greater++
		}
	}
	atThr := k - greater
	for i, s := range scores {
		if math.IsNaN(s) {
			s = math.Inf(1)
		}
		if s > thr {
			idx = append(idx, uint32(i))
		} else if s == thr && atThr > 0 {
			idx = append(idx, uint32(i))
			atThr--
		}
	}
	return idx, scratch
}

// topkPatterns are the score shapes the oracle tests run at every size.
var topkPatterns = map[string]func(r *rng.Rng, i, n int) float64{
	"random":     func(r *rng.Rng, i, n int) float64 { return math.Abs(r.NormFloat64()) },
	"ties":       func(r *rng.Rng, i, n int) float64 { return float64(r.Intn(4)) },
	"signed-0":   func(r *rng.Rng, i, n int) float64 { return [...]float64{math.Copysign(0, -1), 0, 1}[r.Intn(3)] },
	"nan":        func(r *rng.Rng, i, n int) float64 { return pick(r, 0.02, math.NaN(), r.Float64()) },
	"inf":        func(r *rng.Rng, i, n int) float64 { return pick(r, 0.02, math.Inf(1), r.Float64()) },
	"all-equal":  func(r *rng.Rng, i, n int) float64 { return 0.5 },
	"ascending":  func(r *rng.Rng, i, n int) float64 { return float64(i) },
	"descending": func(r *rng.Rng, i, n int) float64 { return float64(n - i) },
	"outlier-block": func(r *rng.Rng, i, n int) float64 {
		if i >= n/3 && i < n/3+n/50 {
			return 1e6 + r.Float64()
		}
		return r.Float64()
	},
}

func pick(r *rng.Rng, p float64, rare, common float64) float64 {
	if r.Float64() < p {
		return rare
	}
	return common
}

// topkSizes straddle topkSampleMin, below which TopKSelect samples no
// bound, and include a size whose stride leaves a remainder.
var topkSizes = []int{1, 2, 7, 100, topkSampleMin - 1, topkSampleMin, topkSampleMin + 1, 3*topkSampleMin + 17}

// topkCounts are the kept counts tried at size n: the extremes, the
// uplink fractions and a half.
func topkCounts(n int) []int {
	return []int{0, 1, 2, TopKCount(n, 0.01), TopKCount(n, 0.05), TopKCount(n, 0.1), n / 2, n - 1, n, n + 1}
}

func sameIndices(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTopKSelectMatchesOracle: the sampled bound selects exactly the
// indices the quickselect over all n does, for every pattern, size and
// kept count, with the scratch slices reused from call to call.
func TestTopKSelectMatchesOracle(t *testing.T) {
	var idx []uint32
	var scratch []float64
	for name, gen := range topkPatterns {
		for _, n := range topkSizes {
			r := rng.New(uint64(n))
			scores := make([]float64, n)
			for i := range scores {
				scores[i] = gen(r, i, n)
			}
			orig := append([]float64(nil), scores...)
			for _, k := range topkCounts(n) {
				want, _ := topKSelectOracle(nil, nil, scores, k)
				idx, scratch = TopKSelect(idx, scratch, scores, k)
				if !sameIndices(idx, want) {
					t.Fatalf("%s n=%d k=%d: kept %d indices %v…, oracle %d %v…",
						name, n, k, len(idx), head(idx), len(want), head(want))
				}
			}
			for i := range scores {
				if math.Float64bits(scores[i]) != math.Float64bits(orig[i]) {
					t.Fatalf("%s n=%d: TopKSelect modified score %d", name, n, i)
				}
			}
		}
	}
}

func head(a []uint32) []uint32 { return a[:min(len(a), 8)] }

// TestTopKSelectFallsBackBelowK: when fewer than k scores reach the
// sampled bound, every score survives. Here the stride lands on every
// large score and nothing else reaches them, so the bound admits fewer
// than k and the fallback decides the selection.
func TestTopKSelectFallsBackBelowK(t *testing.T) {
	const n = 2 * topkSampleMin
	stride := n / topkSample
	r := rng.New(9)
	scores := make([]float64, n)
	large := 0
	for i := range scores {
		scores[i] = r.Float64()
		if i%stride == 0 {
			scores[i] = 10
			large++
		}
	}
	k := large + 100
	buf := make([]float64, 2*n)
	bound := sampleBound(buf, scores, k)
	if c := survivors(buf[:n], make([]uint32, n), scores, bound); c >= k {
		t.Fatalf("bound %v admits %d scores, the test needs fewer than k=%d", bound, c, k)
	}
	want, _ := topKSelectOracle(nil, nil, scores, k)
	got, _ := TopKSelect(nil, nil, scores, k)
	if !sameIndices(got, want) {
		t.Fatalf("fallback kept %v…, oracle %v…", head(got), head(want))
	}
}

// TestTopKSelectSampledBoundAdmitsK: on the uplink's own shape — half-
// normal scores, 5 % kept — the sampled bound admits at least k scores,
// so the selection runs over the survivors only, and not many more than
// the 2k it aims at.
func TestTopKSelectSampledBoundAdmitsK(t *testing.T) {
	const n = 41_000
	r := rng.New(10)
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = math.Abs(r.NormFloat64())
	}
	k := TopKCount(n, 0.05)
	buf := make([]float64, 2*n)
	c := survivors(buf[:n], make([]uint32, n), scores, sampleBound(buf[n:], scores, k))
	if c < k || c > 3*k {
		t.Fatalf("sampled bound admits %d scores, want between k=%d and 3k", c, k)
	}
}

// TestTopKSelectZeroAllocWarm: the warm selection allocates nothing on
// the sampled path and on the fallback.
func TestTopKSelectZeroAllocWarm(t *testing.T) {
	const n = 3 * topkSampleMin
	scores := randVec(rng.New(11), n)
	var idx []uint32
	var scratch []float64
	for _, k := range []int{TopKCount(n, 0.05), n - 1} {
		idx, scratch = TopKSelect(idx, scratch, scores, k)
		if allocs := testing.AllocsPerRun(10, func() {
			idx, scratch = TopKSelect(idx, scratch, scores, k)
		}); allocs != 0 {
			t.Errorf("k=%d: warm TopKSelect allocated %.1f times", k, allocs)
		}
	}
}

// FuzzTopKSelect: TopKSelect keeps exactly the oracle's indices. The
// input's first four bytes give n (up to three times topkSampleMin) and
// k; every later byte is a score class, tiled over the n scores, so a
// short input reaches the sampled path. The checked-in corpus
// (testdata/fuzz/FuzzTopKSelect) holds ties, signed zeros, NaN, ±Inf,
// runs, and the fallback's shape.
func FuzzTopKSelect(f *testing.F) {
	f.Add(topkFuzzInput(5000, 250, []byte{7, 9, 200, 31, 0, 1, 2, 3}))
	f.Add(topkFuzzInput(12000, 600, []byte{5}))
	f.Add(topkFuzzInput(12000, 600, []byte{6}))
	f.Add(topkFuzzInput(9000, 30, []byte{2, 3, 3, 2}))
	f.Add(topkFuzzInput(4096, 2000, []byte{255, 8, 8, 8}))
	var idx []uint32
	var scratch []float64
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := int(binary.LittleEndian.Uint16(data)) % (3*topkSampleMin + 1)
		k := int(binary.LittleEndian.Uint16(data[2:])) % (n + 2)
		classes := data[4:]
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = topkFuzzScore(classes[i%len(classes)], i)
		}
		want, _ := topKSelectOracle(nil, nil, scores, k)
		idx, scratch = TopKSelect(idx, scratch, scores, k)
		if !sameIndices(idx, want) {
			t.Fatalf("n=%d k=%d: kept %d indices %v…, oracle %d %v…", n, k, len(idx), head(idx), len(want), head(want))
		}
	})
}

func topkFuzzInput(n, k int, classes []byte) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(n))
	b = binary.LittleEndian.AppendUint16(b, uint16(k))
	return append(b, classes...)
}

// topkFuzzScore maps a class byte to a score at position i.
func topkFuzzScore(c byte, i int) float64 {
	switch c {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return 0
	case 4:
		return math.Inf(-1)
	case 5:
		return float64(i)
	case 6:
		return -float64(i)
	default:
		return float64(c) / 7
	}
}

func BenchmarkTopKSelect(b *testing.B) {
	for _, n := range []int{41_000, 1 << 16} {
		scores := randVec(rng.New(12), n)
		for i := range scores {
			scores[i] = math.Abs(scores[i])
		}
		k := TopKCount(n, 0.05)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var idx []uint32
			var scratch []float64
			idx, scratch = TopKSelect(idx, scratch, scores, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, scratch = TopKSelect(idx, scratch, scores, k)
			}
		})
	}
}
