package cluster

import "fmt"

// contingency builds the contingency table between two labelings plus the
// marginal counts.
func contingency(a, b []int) (table map[[2]int]int, rowSum, colSum map[int]int, n int) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("cluster: labelings differ in length: %d vs %d", len(a), len(b)))
	}
	table = make(map[[2]int]int)
	rowSum = make(map[int]int)
	colSum = make(map[int]int)
	for i := range a {
		table[[2]int{a[i], b[i]}]++
		rowSum[a[i]]++
		colSum[b[i]]++
	}
	return table, rowSum, colSum, len(a)
}

// comb2 returns C(n, 2) as a float.
func comb2(n int) float64 { return float64(float64(n) * float64(n-1) / 2) }

// ARI computes the Adjusted Rand Index between two labelings: 1 for
// identical partitions, ~0 for independent ones (can be negative).
func ARI(a, b []int) float64 {
	table, rowSum, colSum, n := contingency(a, b)
	if n < 2 {
		return 1
	}
	var sumComb, sumRow, sumCol float64
	for _, c := range table {
		sumComb += comb2(c)
	}
	for _, c := range rowSum {
		sumRow += comb2(c)
	}
	for _, c := range colSum {
		sumCol += comb2(c)
	}
	total := comb2(n)
	expected := sumRow * sumCol / total
	maxIdx := float64((sumRow + sumCol) / 2)
	if maxIdx == expected {
		// Both partitions are trivial (all-singletons or single-cluster);
		// they agree exactly iff the index equals the max.
		return 1
	}
	return (sumComb - expected) / (maxIdx - expected)
}
