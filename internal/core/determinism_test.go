package core

import (
	"testing"

	"fedclust/internal/cluster"
	"fedclust/internal/linalg"
)

// TestFedClustFullyDeterministic: two runs with the same seed must agree
// bit-for-bit on clusters, accuracy, and communication — the property the
// whole experiment harness rests on.
func TestFedClustFullyDeterministic(t *testing.T) {
	run := func() (labels []int, acc float64, up int64) {
		env, _ := groupEnv(t, 3, 3, 55)
		f := &FedClust{}
		res := f.Run(env)
		return res.Clusters, res.FinalAcc, res.Comm.UpBytes
	}
	l1, a1, u1 := run()
	l2, a2, u2 := run()
	if a1 != a2 || u1 != u2 {
		t.Fatalf("runs diverged: acc %v vs %v, up %d vs %d", a1, a2, u1, u2)
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("cluster assignments diverged: %v vs %v", l1, l2)
		}
	}
}

// TestFedClustMaxClustersBound: the automatic cut never exceeds n/2
// clusters (4 for these eight clients).
func TestFedClustMaxClustersBound(t *testing.T) {
	env, _ := groupEnv(t, 4, 1, 56)
	res := (&FedClust{}).Run(env)
	if k := cluster.NumClusters(res.Clusters); k > len(env.Clients)/2 {
		t.Fatalf("automatic cut exceeded n/2 = %d: k=%d", len(env.Clients)/2, k)
	}
}

// TestProximityMatrixProperties: symmetric, zero-diagonal, non-negative.
func TestProximityMatrixProperties(t *testing.T) {
	env, _ := groupEnv(t, 2, 1, 57)
	f := &FedClust{}
	f.Run(env)
	prox := linalg.PairwiseDistances(f.State.Metric, f.State.Features)
	n := prox.Shape[0]
	if n != len(env.Clients) {
		t.Fatalf("proximity matrix size %d", n)
	}
	for i := 0; i < n; i++ {
		if prox.At(i, i) != 0 {
			t.Fatal("non-zero diagonal")
		}
		for j := 0; j < n; j++ {
			if prox.At(i, j) < 0 || prox.At(i, j) != prox.At(j, i) {
				t.Fatal("proximity matrix not symmetric non-negative")
			}
		}
	}
}

// TestFedClustCosineMetricVariant: the configurable metric must flow
// through to the fitted state and still recover planted groups.
func TestFedClustCosineMetricVariant(t *testing.T) {
	env, truth := groupEnv(t, 3, 2, 58)
	f := &FedClust{Cfg: Config{Metric: linalg.Cosine}}
	res := f.Run(env)
	if f.State.Metric != linalg.Cosine {
		t.Fatal("metric not recorded in state")
	}
	if ari := cluster.ARI(res.Clusters, truth); ari < 0.99 {
		t.Fatalf("cosine-metric FedClust ARI = %v", ari)
	}
}

// TestFeatureOfNormalization: default features are unit-norm updates;
// RawFeatures returns the layer weights verbatim.
func TestFeatureOfNormalization(t *testing.T) {
	env, _ := groupEnv(t, 2, 1, 59)
	init := make([]float64, 0)
	model := env.NewModel()
	initLayer := InitLayerVector(env, Config{})
	_ = init
	// Perturb the classifier by a known vector.
	wl := model.Layers
	_ = wl
	feat := FeatureOf(model, initLayer, Config{})
	// Untrained model minus its own init: zero delta → zero vector kept
	// at zero norm (no NaNs).
	var norm float64
	for _, v := range feat {
		norm += v * v
	}
	if norm != 0 {
		t.Fatalf("feature of unperturbed model should be zero, norm²=%v", norm)
	}
	raw := FeatureOf(model, initLayer, Config{RawFeatures: true})
	for i, v := range initLayer {
		if raw[i] != v {
			t.Fatal("RawFeatures should return layer weights verbatim")
		}
	}
}
