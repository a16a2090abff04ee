package cluster

import (
	"testing"

	"fedclust/internal/tensor"
)

func TestSpectralBipartitionTwoGroups(t *testing.T) {
	// Similarity: high within groups {0,1,2} and {3,4,5}, low across.
	n := 6
	sim := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			same := (i < 3) == (j < 3)
			if same {
				sim.Set(1.0, i, j)
			} else {
				sim.Set(0.01, i, j)
			}
		}
	}
	labels := SpectralBipartition(sim)
	truth := []int{0, 0, 0, 1, 1, 1}
	if ari := ARI(labels, truth); ari != 1 {
		t.Fatalf("spectral bipartition ARI = %v (labels %v)", ari, labels)
	}
}

func TestSpectralBipartitionNegativeSimilarities(t *testing.T) {
	// CFL feeds cosine similarities which can be negative across clusters.
	n := 8
	sim := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			same := (i%2 == 0) == (j%2 == 0)
			if same {
				sim.Set(0.9, i, j)
			} else {
				sim.Set(-0.8, i, j)
			}
		}
	}
	labels := SpectralBipartition(sim)
	truth := make([]int, n)
	for i := range truth {
		truth[i] = i % 2
	}
	if ari := ARI(labels, truth); ari != 1 {
		t.Fatalf("bipartition with negative sims ARI = %v", ari)
	}
}

func TestSpectralBipartitionAlwaysTwoSided(t *testing.T) {
	// Fully uniform similarity has no structure; the bipartition must
	// still return two non-empty sides (CFL requires a proper split).
	n := 5
	sim := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				sim.Set(1, i, j)
			}
		}
	}
	labels := SpectralBipartition(sim)
	if NumClusters(labels) != 2 {
		t.Fatalf("degenerate bipartition returned %d side(s)", NumClusters(labels))
	}
}

func TestSpectralBipartitionTiny(t *testing.T) {
	if got := SpectralBipartition(tensor.New(1, 1)); len(got) != 1 || got[0] != 0 {
		t.Fatalf("n=1 bipartition = %v", got)
	}
}
