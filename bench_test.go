// Root benchmark harness: one benchmark per table/figure of the paper
// (plus the extension experiments in DESIGN.md §4). Each benchmark runs a
// reduced-scale but structurally faithful version of its experiment and
// reports the headline quantity (accuracy, ARI, bytes) as custom metrics,
// so `go test -bench=. -benchmem` regenerates every artifact's shape:
//
//	BenchmarkTable1/*      — Table I rows (acc% per method × dataset)
//	BenchmarkFig1          — Fig. 1 block scores per probed layer
//	BenchmarkCommCost      — C1 cluster-formation traffic
//	BenchmarkNewcomer      — F2 newcomer routing
//	BenchmarkAlphaSweep    — S1 heterogeneity sweep
//	BenchmarkScale         — S2 clustering scalability
//	BenchmarkLayerAblation — A1 per-layer cluster recovery
//	BenchmarkLinkage       — A2 linkage ablation
//
// Absolute wall-clock numbers are simulator-dependent; the custom metrics
// are the reproduction targets (bench/README.md holds the measured numbers;
// a paper-vs-measured table is ROADMAP item 4).
package fedclust_test

import (
	"fmt"
	"testing"

	"fedclust/internal/experiments"
)

// benchWorkload is the benchmark-scale Table-I workload: small enough for
// one iteration per second-ish, large enough to preserve orderings.
func benchWorkload(dataset string) experiments.Workload {
	w := experiments.QuickWorkload(dataset)
	w.Clients = 8
	w.Rounds = 4
	w.TrainPerClass = 80
	w.TestPerClass = 30
	w.IFCAK = 3
	return w
}

func BenchmarkTable1(b *testing.B) {
	for _, ds := range experiments.DatasetNames {
		for _, m := range experiments.MethodNames {
			b.Run(fmt.Sprintf("%s/%s", ds, m), func(b *testing.B) {
				w := benchWorkload(ds)
				var acc float64
				for i := 0; i < b.N; i++ {
					env := experiments.BuildEnv(w, 1)
					res := experiments.NewTrainer(m, w).Run(env)
					acc = res.FinalAcc
				}
				b.ReportMetric(100*acc, "acc%")
			})
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	opts := experiments.DefaultFig1Options()
	opts.ClientsPerGroup = 3
	opts.TrainPerClass = 30
	opts.Epochs = 2
	var res *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig1(opts)
	}
	first := res.Layers[0]
	last := res.Layers[len(res.Layers)-1]
	b.ReportMetric(first.BlockScore, "layer1_block")
	b.ReportMetric(last.BlockScore, "layer16_block")
	b.ReportMetric(last.ARI, "layer16_ARI")
}

func BenchmarkCommCost(b *testing.B) {
	opts := experiments.DefaultCommOptions()
	opts.Quick = true
	opts.Rounds = 4
	opts.ClientsPerGroup = 3
	var res *experiments.CommResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunComm(opts)
	}
	for _, row := range res.Rows {
		if row.Method == "FedClust" {
			b.ReportMetric(float64(row.FormationUpBytes), "fedclust_form_B")
			b.ReportMetric(float64(row.FormationRound), "fedclust_form_round")
		}
		if row.Method == "CFL" {
			b.ReportMetric(float64(row.FormationUpBytes), "cfl_form_B")
		}
	}
}

func BenchmarkNewcomer(b *testing.B) {
	opts := experiments.DefaultNewcomerOptions()
	opts.Newcomers = 4
	var res *experiments.NewcomerResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunNewcomer(opts)
	}
	b.ReportMetric(float64(res.Routed)/float64(res.Total), "routed_frac")
	b.ReportMetric(100*res.ServedAcc, "served_acc%")
}

func BenchmarkAlphaSweep(b *testing.B) {
	opts := experiments.AlphaSweepOptions{
		Dataset: "fmnist",
		Alphas:  []float64{0.1, 10},
		Methods: []string{"FedAvg", "FedClust"},
		Seed:    1,
		Quick:   true,
	}
	var res *experiments.AlphaSweepResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunAlphaSweep(opts)
	}
	gapSkew := res.Acc["FedClust"][0.1] - res.Acc["FedAvg"][0.1]
	gapIID := res.Acc["FedClust"][10] - res.Acc["FedAvg"][10]
	b.ReportMetric(100*gapSkew, "gap_skew_pts")
	b.ReportMetric(100*gapIID, "gap_iid_pts")
}

func BenchmarkScale(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			opts := experiments.ScaleOptions{Dataset: "fmnist", ClientSizes: []int{n}, Seed: 1}
			var res *experiments.ScaleResult
			for i := 0; i < b.N; i++ {
				res = experiments.RunScale(opts)
			}
			row := res.Rows[0]
			b.ReportMetric(float64(row.ClusteringTime.Milliseconds()), "cluster_ms")
			b.ReportMetric(row.ARI, "ARI")
		})
	}
}

func BenchmarkLayerAblation(b *testing.B) {
	opts := experiments.DefaultLayerAblationOptions()
	var res *experiments.LayerAblationResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunLayerAblation(opts)
	}
	b.ReportMetric(res.Rows[0].ARI, "layer1_ARI")
	b.ReportMetric(res.Rows[len(res.Rows)-1].ARI, "final_ARI")
}

func BenchmarkLinkage(b *testing.B) {
	opts := experiments.DefaultLinkageAblationOptions()
	var res *experiments.LinkageAblationResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunLinkageAblation(opts)
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.ARI, row.Linkage.String()+"_ARI")
	}
}

func BenchmarkCompression(b *testing.B) {
	opts := experiments.DefaultCompressionOptions()
	opts.Methods = []string{"FedAvg"}
	var res *experiments.CompressionResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunCompression(opts)
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.AccPct, row.Codec.String()+"_acc")
		b.ReportMetric(float64(row.UpBytes), row.Codec.String()+"_upB")
	}
}

func BenchmarkSelector(b *testing.B) {
	opts := experiments.DefaultSelectorAblationOptions()
	var res *experiments.SelectorAblationResult
	for i := 0; i < b.N; i++ {
		res = experiments.RunSelectorAblation(opts)
	}
	for _, row := range res.Rows {
		if row.Rule == "silhouette (default)" {
			b.ReportMetric(row.ARI, "default_ARI")
			b.ReportMetric(float64(row.K), "default_K")
		}
	}
}
