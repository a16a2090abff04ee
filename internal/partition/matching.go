package partition

import (
	"fmt"

	"fedclust/internal/rng"
)

// ClientLabelHistograms returns per-client class counts for an assignment.
func ClientLabelHistograms(a Assignment, labels []int, classes int) [][]int {
	out := make([][]int, len(a))
	for c, idx := range a {
		h := make([]int, classes)
		for _, i := range idx {
			h[labels[i]]++
		}
		out[c] = h
	}
	return out
}

// MatchingTest distributes test-set indices to clients so each client's
// test label distribution matches its train label distribution — the
// personalized evaluation protocol of the clustered-FL literature (each
// device is tested on the kind of data it actually sees).
//
// trainHists is the per-client class histogram of the training partition
// (from ClientLabelHistograms); testLabels are the labels of the test set
// being split. Classes a client never trains on are never placed in its
// test set.
func MatchingTest(trainHists [][]int, testLabels []int, classes int, r *rng.Rng) Assignment {
	numClients := len(trainHists)
	if numClients == 0 {
		panic("partition: MatchingTest with no clients")
	}
	byClass := make([][]int, classes)
	for i, y := range testLabels {
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("partition: test label %d out of range", y))
		}
		byClass[y] = append(byClass[y], i)
	}
	out := make(Assignment, numClients)
	for k := 0; k < classes; k++ {
		idx := byClass[k]
		if len(idx) == 0 {
			continue
		}
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		// Client weights = train counts of class k.
		total := 0
		for _, h := range trainHists {
			total += h[k]
		}
		if total == 0 {
			continue // nobody trains on this class; drop its test examples
		}
		props := make([]float64, numClients)
		for c, h := range trainHists {
			props[c] = float64(h[k]) / float64(total)
		}
		counts := proportionsToCounts(props, len(idx))
		lo := 0
		for c, cnt := range counts {
			out[c] = append(out[c], idx[lo:lo+cnt]...)
			lo += cnt
		}
	}
	return out
}
