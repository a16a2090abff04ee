// Package partition splits a dataset's example indices across simulated
// clients. It implements the Dir(α) label-skew partitioner the paper's
// evaluation uses ("Non-IID Dir(0.1)", after Li et al., ICDE 2022), the
// label-group partitioner behind Fig. 1's two-cluster probe, and the
// label-matched test split of personalized evaluation.
package partition

import (
	"fmt"

	"fedclust/internal/rng"
	"fedclust/internal/stats"
)

// Assignment maps each client to the dataset rows it owns.
type Assignment [][]int

// Dirichlet assigns examples to clients with label-skew controlled by
// alpha: for each class, a proportion vector over clients is drawn from
// Dir(alpha) and the class's examples are split accordingly. Small alpha
// (e.g. 0.1, the paper's setting) concentrates each class on few clients;
// large alpha approaches IID. Every client is guaranteed at least
// minPerClient examples (indices are rebalanced from the largest clients
// if a draw leaves someone short).
func Dirichlet(labels []int, numClients int, alpha float64, minPerClient int, r *rng.Rng) Assignment {
	if numClients < 1 {
		panic(fmt.Sprintf("partition: numClients must be positive, got %d", numClients))
	}
	if alpha <= 0 {
		panic(fmt.Sprintf("partition: alpha must be positive, got %v", alpha))
	}
	if minPerClient*numClients > len(labels) {
		panic(fmt.Sprintf("partition: cannot guarantee %d examples for %d clients with %d total",
			minPerClient, numClients, len(labels)))
	}
	// Bucket indices by class, shuffled.
	byClass := make(map[int][]int)
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}
	classes := make([]int, 0, len(byClass))
	for k := range byClass {
		classes = append(classes, k)
	}
	// Deterministic class order (map iteration is random).
	sortInts(classes)
	out := make(Assignment, numClients)
	for _, k := range classes {
		idx := byClass[k]
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		p := r.Dirichlet(alpha, numClients)
		// Convert proportions to integer counts summing to len(idx).
		counts := proportionsToCounts(p, len(idx))
		lo := 0
		for c, cnt := range counts {
			out[c] = append(out[c], idx[lo:lo+cnt]...)
			lo += cnt
		}
	}
	rebalanceMin(out, minPerClient, r)
	return out
}

// LabelGroups splits clients into groups, where group g's clients hold
// only the classes in groups[g]. Class examples are spread uniformly over
// the group's clients. This is the construction behind the paper's Fig. 1
// (two groups: classes {0..4} and {5..9}) and the ground truth for
// cluster-recovery metrics. clientsPerGroup[g] gives the group sizes.
func LabelGroups(labels []int, groups [][]int, clientsPerGroup []int, r *rng.Rng) Assignment {
	if len(groups) != len(clientsPerGroup) {
		panic(fmt.Sprintf("partition: %d groups but %d sizes", len(groups), len(clientsPerGroup)))
	}
	classToGroup := make(map[int]int)
	for g, cls := range groups {
		for _, k := range cls {
			if prev, dup := classToGroup[k]; dup {
				panic(fmt.Sprintf("partition: class %d in both group %d and %d", k, prev, g))
			}
			classToGroup[k] = g
		}
	}
	totalClients := 0
	firstClient := make([]int, len(groups))
	for g, n := range clientsPerGroup {
		if n < 1 {
			panic(fmt.Sprintf("partition: group %d has %d clients", g, n))
		}
		firstClient[g] = totalClients
		totalClients += n
	}
	out := make(Assignment, totalClients)
	byClass := make(map[int][]int)
	for i, y := range labels {
		byClass[y] = append(byClass[y], i)
	}
	classes := make([]int, 0, len(byClass))
	for k := range byClass {
		classes = append(classes, k)
	}
	sortInts(classes)
	for _, k := range classes {
		g, ok := classToGroup[k]
		if !ok {
			continue // class not owned by any group: dropped
		}
		idx := byClass[k]
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		n := clientsPerGroup[g]
		for i, row := range idx {
			c := firstClient[g] + i%n
			out[c] = append(out[c], row)
		}
	}
	return out
}

// GroupTruth returns the ground-truth group label of every client produced
// by LabelGroups with the given sizes.
func GroupTruth(clientsPerGroup []int) []int {
	var out []int
	for g, n := range clientsPerGroup {
		for i := 0; i < n; i++ {
			out = append(out, g)
		}
	}
	return out
}

// proportionsToCounts converts a probability vector to integer counts
// summing exactly to total (largest-remainder rounding).
func proportionsToCounts(p []float64, total int) []int {
	counts := make([]int, len(p))
	rem := make([]float64, len(p))
	used := 0
	for i, v := range p {
		exact := float64(v * float64(total))
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		used += counts[i]
	}
	for used < total {
		best := stats.ArgMax(rem)
		counts[best]++
		rem[best] = -1
		used++
	}
	return counts
}

// rebalanceMin moves examples from the largest clients to any client below
// the minimum until all satisfy it.
func rebalanceMin(a Assignment, minPerClient int, r *rng.Rng) {
	if minPerClient <= 0 {
		return
	}
	for {
		short := -1
		for c, idx := range a {
			if len(idx) < minPerClient {
				short = c
				break
			}
		}
		if short == -1 {
			return
		}
		// Donate from the largest client.
		big := 0
		for c := range a {
			if len(a[c]) > len(a[big]) {
				big = c
			}
		}
		if len(a[big]) <= minPerClient {
			panic("partition: cannot satisfy minimum client size")
		}
		// Move a random example from big to short.
		j := r.Intn(len(a[big]))
		a[short] = append(a[short], a[big][j])
		a[big][j] = a[big][len(a[big])-1]
		a[big] = a[big][:len(a[big])-1]
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
