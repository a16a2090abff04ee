package main

import "fedclust/internal/stats"

// minBeyond is how many samples must lie beyond a reported percentile
// for it to mean something: with fewer, the value is set by a handful of
// outliers and moves run to run.
const minBeyond = 10

// supported reports whether a sample of n values has at least minBeyond
// values beyond its q-quantile, so that the quantile may be reported.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9 // 100 x (1 - 0.9) is a hair under 10 in binary
}

// summary is a repeated timing's median with its count and range.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	return summary{Median: stats.Median(xs), Min: stats.Min(xs), Max: stats.Max(xs), N: len(xs)}
}
