// Root benchmark harness: one benchmark per table/figure of the paper
// (plus the extension experiments in DESIGN.md §4). Each benchmark runs a
// reduced-scale but structurally faithful version of its experiment and
// reports the headline quantity (accuracy, ARI, bytes) as custom metrics,
// so `go test -bench=. -benchmem` regenerates every artifact's shape:
//
//	BenchmarkTable1/<dataset>/<method> — Table I rows (acc% per cell)
//	BenchmarkExperiment/<name>         — one entry of experimentBenches per
//	                                     fedsim experiment subcommand
//	BenchmarkScale/clients=<n>         — S2 clustering scalability
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
					env := experiments.Common{Seed: 1}.Env(w)
					res := experiments.NewTrainer(m, w).Run(env)
					acc = res.FinalAcc
				}
				b.ReportMetric(100*acc, "acc%")
			})
		}
	}
}

// quickDefaults is what the option-less experiments run on here.
var quickDefaults = experiments.Common{Dataset: "fmnist", Seed: 1, Quick: true}

// experimentBenches runs each experiment once and names its headline
// quantities.
var experimentBenches = []struct {
	name string
	run  func() map[string]float64
}{
	{"fig1", func() map[string]float64 {
		opts := experiments.DefaultFig1Options()
		opts.ClientsPerGroup, opts.TrainPerClass, opts.Epochs = 3, 30, 2
		res := experiments.RunFig1(opts)
		first, last := res.Layers[0], res.Layers[len(res.Layers)-1]
		return map[string]float64{"layer1_block": first.BlockScore, "layer16_block": last.BlockScore, "layer16_ARI": last.ARI}
	}},
	{"comm", func() map[string]float64 {
		opts := experiments.DefaultCommOptions()
		opts.Quick, opts.Rounds = true, 4
		out := map[string]float64{}
		for _, row := range experiments.RunComm(opts).Rows {
			switch row.Method {
			case "FedClust":
				out["fedclust_form_B"], out["fedclust_form_round"] = float64(row.FormationUpBytes), float64(row.FormationRound)
			case "CFL":
				out["cfl_form_B"] = float64(row.FormationUpBytes)
			}
		}
		return out
	}},
	{"newcomer", func() map[string]float64 {
		opts := experiments.DefaultNewcomerOptions()
		opts.Newcomers = 4
		res := experiments.RunNewcomer(opts)
		return map[string]float64{"routed_frac": float64(res.Routed) / float64(res.Total), "served_acc%": 100 * res.ServedAcc}
	}},
	{"sweep-alpha", func() map[string]float64 {
		opts := experiments.DefaultAlphaSweepOptions()
		opts.Quick, opts.Alphas, opts.Methods = true, []float64{0.1, 10}, []string{"FedAvg", "FedClust"}
		res := experiments.RunAlphaSweep(opts)
		return map[string]float64{
			"gap_skew_pts": 100 * (res.Acc("FedClust", 0.1) - res.Acc("FedAvg", 0.1)),
			"gap_iid_pts":  100 * (res.Acc("FedClust", 10) - res.Acc("FedAvg", 10)),
		}
	}},
	{"ablation-layer", func() map[string]float64 {
		rows := experiments.RunLayerAblation(quickDefaults).Rows
		return map[string]float64{"layer1_ARI": rows[0].ARI, "final_ARI": rows[len(rows)-1].ARI}
	}},
	{"ablation-linkage", func() map[string]float64 {
		out := map[string]float64{}
		for _, row := range experiments.RunLinkageAblation(quickDefaults).Rows {
			out[row.Variant+"_ARI"] = row.ARI
		}
		return out
	}},
	{"ablation-selector", func() map[string]float64 {
		row := experiments.RunSelectorAblation(quickDefaults).Rows[0]
		return map[string]float64{"default_ARI": row.ARI, "default_K": float64(row.K)}
	}},
	{"ablation-compression", func() map[string]float64 {
		opts := experiments.DefaultCompressionOptions()
		opts.Methods = []string{"FedAvg"}
		out := map[string]float64{}
		for _, row := range experiments.RunCompression(opts).Rows {
			out[row.Codec.String()+"_acc"], out[row.Codec.String()+"_upB"] = row.AccPct, float64(row.UpBytes)
		}
		return out
	}},
}

func BenchmarkExperiment(b *testing.B) {
	for _, e := range experimentBenches {
		b.Run(e.name, func(b *testing.B) {
			var metrics map[string]float64
			for i := 0; i < b.N; i++ {
				metrics = e.run()
			}
			for unit, v := range metrics {
				b.ReportMetric(v, unit)
			}
		})
	}
}

func BenchmarkScale(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			opts := experiments.DefaultScaleOptions()
			opts.ClientSizes = []int{n}
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
