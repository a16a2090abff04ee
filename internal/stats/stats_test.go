package stats

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStdBasics(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", m)
	}
	// Unbiased std of this classic set is sqrt(32/7).
	if s := Std(xs); !almostEq(s, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("Std = %v, want %v", s, math.Sqrt(32.0/7.0))
	}
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{1}) != 0 {
		t.Fatal("degenerate inputs should give zero moments")
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{5, 3, 8, 1, 9, 2}
	if Min(xs) != 1 || Max(xs) != 9 {
		t.Fatal("Min/Max wrong")
	}
	if m := Median(xs); !almostEq(m, 4, 1e-12) { // sorted: 1 2 3 5 8 9 → (3+5)/2
		t.Fatalf("Median = %v, want 4", m)
	}
	if m := Median([]float64{7}); m != 7 {
		t.Fatalf("Median single = %v, want 7", m)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := Quantile(xs, 0); q != 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 10 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); !almostEq(q, 5, 1e-12) {
		t.Fatalf("q0.5 = %v", q)
	}
	if q := Quantile(xs, 0.25); !almostEq(q, 2.5, 1e-12) {
		t.Fatalf("q0.25 = %v", q)
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile on empty did not panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestArgMax(t *testing.T) {
	xs := []float64{3, 9, 1, 9, 0}
	if ArgMax(xs) != 1 {
		t.Fatal("ArgMax should return first maximal index")
	}
}
