package fl

import (
	"math"
	"testing"

	"fedclust/internal/rng"
)

// randVecs draws n seeded vectors of the given dimension plus positive
// report weights — a benign gather.
func randVecs(n, dim int, seed uint64) ([][]float64, []float64) {
	r := rng.New(seed)
	vecs := make([][]float64, n)
	ws := make([]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		vecs[i] = v
		ws[i] = 0.5 + r.Float64()
	}
	return vecs, ws
}

// plainMean is the plain weighted average as an Aggregator, suspecting
// nobody — the baseline the robust strategies are held against (a nil
// Env.Aggregator takes the same math through the engine's fast path).
type plainMean struct{}

func (*plainMean) Name() string { return "mean" }

func (*plainMean) Aggregate(dst []float64, vecs [][]float64, ws []float64) int {
	WeightedAverageInto(dst, vecs, ws)
	return 0
}

// TestTrimmedZeroFracIsBitExactMean: the "robust aggregators equal plain
// averaging at byzantine fraction 0" property, at the bit level — a
// trimmed mean with nothing to trim must take the exact
// WeightedAverageInto path, so a benign hostile config is a no-op.
func TestTrimmedZeroFracIsBitExactMean(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		vecs, ws := randVecs(n, 37, uint64(100+n))
		want := make([]float64, 37)
		WeightedAverageInto(want, vecs, ws)
		for _, frac := range []float64{0, 0.01} { // ⌊0.01·n⌋ = 0 for n ≤ 16
			got := make([]float64, 37)
			tm := &TrimmedMean{Frac: frac}
			if s := tm.Aggregate(got, vecs, ws); s != 0 {
				t.Fatalf("n=%d frac=%v: suspects=%d, want 0", n, frac, s)
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("n=%d frac=%v coord %d: %x != %x",
						n, frac, j, got[j], want[j])
				}
			}
		}
	}
}

// TestKrumSmallGatherFallsBackToMean: below Krum's scoring threshold
// (n < 3, or n−f−2 < 1) the strategy must degrade to the bit-exact
// weighted mean with zero suspects — tiny clusters stay well-defined.
func TestKrumSmallGatherFallsBackToMean(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		frac := 0.4 // n=3: f=1, closest=0 → fallback
		vecs, ws := randVecs(n, 8, uint64(200+n))
		want := make([]float64, 8)
		WeightedAverageInto(want, vecs, ws)
		got := make([]float64, 8)
		k := &Krum{Frac: frac}
		if s := k.Aggregate(got, vecs, ws); s != 0 {
			t.Fatalf("n=%d: suspects=%d, want 0 (fallback)", n, s)
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("n=%d coord %d diverged from mean", n, j)
			}
		}
	}
}

// TestAggregatorsAgreeOnConsensus: when every input is the same vector,
// every strategy must return it exactly — there is nothing to disagree
// about, whatever gets trimmed, outvoted, or deselected.
func TestAggregatorsAgreeOnConsensus(t *testing.T) {
	base := []float64{1.5, -2.25, 0, 1e-9, 3e7}
	n := 7
	vecs := make([][]float64, n)
	ws := make([]float64, n)
	for i := range vecs {
		vecs[i] = append([]float64(nil), base...)
		ws[i] = float64(i + 1)
	}
	for _, a := range []Aggregator{
		&plainMean{}, &TrimmedMean{Frac: 0.2}, &Median{},
		&Krum{Frac: 0.2}, &Krum{Frac: 0.2, M: 3},
	} {
		got := make([]float64, len(base))
		a.Aggregate(got, vecs, ws)
		for j := range got {
			// Averaging strategies divide sum(w·v) by sum(w), so identical
			// inputs reproduce to rounding, not necessarily to the bit.
			if diff := math.Abs(got[j] - base[j]); diff > 1e-12*math.Abs(base[j]) {
				t.Errorf("%s: coord %d = %v, want %v", a.Name(), j, got[j], base[j])
			}
		}
	}
}

// TestRobustAggregatorsRejectOutlier: one attacker reports a hugely
// scaled vector. The mean is dragged; trimmed/median/krum must stay
// within the honest range at every coordinate.
func TestRobustAggregatorsRejectOutlier(t *testing.T) {
	vecs, ws := randVecs(10, 24, 42)
	for j := range vecs[3] {
		vecs[3][j] = 1e6 // the attacker
	}
	mean := make([]float64, 24)
	WeightedAverageInto(mean, vecs, ws)
	var dragged bool
	for j := range mean {
		if math.Abs(mean[j]) > 100 {
			dragged = true
		}
	}
	if !dragged {
		t.Fatal("test setup: the outlier should visibly drag the mean")
	}
	for _, a := range []Aggregator{
		&TrimmedMean{Frac: 0.2}, &Median{}, &Krum{Frac: 0.2}, &Krum{Frac: 0.2, M: 3},
	} {
		got := make([]float64, 24)
		suspects := a.Aggregate(got, vecs, ws)
		for j := range got {
			if math.Abs(got[j]) > 100 {
				t.Errorf("%s: coord %d = %v leaked the outlier", a.Name(), j, got[j])
			}
		}
		if _, isMedian := a.(*Median); !isMedian && suspects == 0 {
			t.Errorf("%s: suspected nobody with an attacker present", a.Name())
		}
	}
}

// TestKrumSelectsAnInputVector: classic Krum (M=1) returns one of the
// reported vectors verbatim — and with a majority clustered tightly, a
// clustered one, never the far-away attacker.
func TestKrumSelectsAnInputVector(t *testing.T) {
	vecs, ws := randVecs(9, 6, 7)
	for i := range vecs { // tight honest cluster around +1
		for j := range vecs[i] {
			vecs[i][j] = 1 + 0.01*vecs[i][j]
		}
	}
	for j := range vecs[2] {
		vecs[2][j] = -50 // attacker
	}
	got := make([]float64, 6)
	k := &Krum{Frac: 0.2, M: 1}
	if s := k.Aggregate(got, vecs, ws); s != 8 {
		t.Fatalf("suspects=%d, want n-1=8", s)
	}
	match := -1
	for i := range vecs {
		same := true
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(vecs[i][j]) {
				same = false
				break
			}
		}
		if same {
			match = i
			break
		}
	}
	if match < 0 {
		t.Fatal("Krum output is not one of the input vectors")
	}
	if match == 2 {
		t.Fatal("Krum selected the attacker")
	}
}

// TestMedianWeightedSemantics: the weighted median follows the report
// weights — a heavy honest majority outvotes a light extreme value.
func TestMedianWeightedSemantics(t *testing.T) {
	vecs := [][]float64{{0}, {1}, {100}}
	ws := []float64{3, 3, 1}
	got := make([]float64, 1)
	(&Median{}).Aggregate(got, vecs, ws)
	// total=7, half=3.5: cum after {0} is 3 (<3.5), after {1} is 6 — the
	// weighted median is 1.
	if got[0] != 1 {
		t.Fatalf("weighted median = %v, want 1", got[0])
	}
	// All-zero weights: unweighted median of {0,1,100} is 1.
	(&Median{}).Aggregate(got, vecs, []float64{0, 0, 0})
	if got[0] != 1 {
		t.Fatalf("all-zero-weight median = %v, want 1", got[0])
	}
}

// TestTrimmedSuspectCount: ⌊Frac·n⌋ per side, clamped to leave a
// survivor, reported as 2k.
func TestTrimmedSuspectCount(t *testing.T) {
	for _, c := range []struct {
		n    int
		frac float64
		want int
	}{{10, 0.2, 4}, {10, 0.5, 8}, {3, 0.4, 2}, {2, 0.4, 0}, {5, 0.1, 0}} {
		vecs, ws := randVecs(c.n, 4, uint64(c.n))
		got := make([]float64, 4)
		tm := &TrimmedMean{Frac: c.frac}
		if s := tm.Aggregate(got, vecs, ws); s != c.want {
			t.Errorf("n=%d frac=%v: suspects=%d, want %d", c.n, c.frac, s, c.want)
		}
	}
}

// TestNewAggregator: flag-name round trips, the nil fast path for the
// mean, and the rejected fraction domain.
func TestNewAggregator(t *testing.T) {
	for _, name := range []string{"", "mean", "fedavg"} {
		if a, err := NewAggregator(name, 0.2); err != nil || a != nil {
			t.Errorf("NewAggregator(%q) = (%v, %v), want (nil, nil)", name, a, err)
		}
	}
	for name, want := range map[string]string{
		"trimmed": "trimmed(0.2)", "trimmed-mean": "trimmed(0.2)",
		"median": "median", "coordinate-median": "median",
		"krum": "krum(0.2,1)", "multi-krum": "krum(0.2,n-f)",
	} {
		a, err := NewAggregator(name, 0.2)
		if err != nil || a == nil {
			t.Fatalf("NewAggregator(%q): %v", name, err)
		}
		if a.Name() != want {
			t.Errorf("NewAggregator(%q).Name() = %q, want %q", name, a.Name(), want)
		}
	}
	for _, frac := range []float64{-0.1, 0.5, 0.9, math.NaN()} {
		if _, err := NewAggregator("trimmed", frac); err == nil {
			t.Errorf("NewAggregator(trimmed, %v): want error", frac)
		}
	}
	if _, err := NewAggregator("bogus", 0.2); err == nil {
		t.Error("NewAggregator(bogus): want error")
	}
	if AggregatorName(nil) != "mean" {
		t.Error(`AggregatorName(nil) != "mean"`)
	}
}

// TestRobustInputContracts: the shared input checks panic on aliasing and
// invalid weights, like WeightedAverageInto.
func TestRobustInputContracts(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	vecs, ws := randVecs(4, 3, 9)
	dst := make([]float64, 3)
	mustPanic("alias", func() {
		(&Median{}).Aggregate(vecs[0], vecs, ws)
	})
	mustPanic("nan weight", func() {
		(&TrimmedMean{Frac: 0.3}).Aggregate(dst, vecs, []float64{1, math.NaN(), 1, 1})
	})
	mustPanic("negative weight", func() {
		(&Krum{Frac: 0.3}).Aggregate(dst, vecs, []float64{1, -1, 1, 1})
	})
	mustPanic("length mismatch", func() {
		(&Median{}).Aggregate(dst, [][]float64{{1, 2, 3}, {1, 2}}, []float64{1, 1})
	})
	mustPanic("empty", func() {
		(&Median{}).Aggregate(dst, nil, nil)
	})
}

// TestAggregatorsAreScratchStable: reusing one strategy value across
// calls (the engine holds it for the whole run) must not let scratch
// state leak between gathers of different sizes.
func TestAggregatorsAreScratchStable(t *testing.T) {
	for _, a := range []Aggregator{
		&TrimmedMean{Frac: 0.2}, &Median{}, &Krum{Frac: 0.2, M: 3},
	} {
		var first []float64
		for trial := 0; trial < 3; trial++ {
			// Interleave a different-shaped gather to dirty the scratch.
			v2, w2 := randVecs(13, 5, 999)
			a.Aggregate(make([]float64, 5), v2, w2)

			vecs, ws := randVecs(8, 11, 55)
			got := make([]float64, 11)
			a.Aggregate(got, vecs, ws)
			if first == nil {
				first = got
				continue
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(first[j]) {
					t.Fatalf("%s: trial %d coord %d drifted", a.Name(), trial, j)
				}
			}
		}
	}
}
