package experiments

import (
	"fmt"
	"time"

	"fedclust/internal/cluster"
	"fedclust/internal/core"
	"fedclust/internal/fl"
	"fedclust/internal/linalg"
	"fedclust/internal/nn"
)

// AlphaSweepOptions configures the heterogeneity sweep (experiment S1):
// the paper's future-work direction of exploring performance across data
// heterogeneity levels.
type AlphaSweepOptions struct {
	Common
	Alphas  []float64
	Methods []string
}

// DefaultAlphaSweepOptions sweeps α over three orders of magnitude.
func DefaultAlphaSweepOptions() AlphaSweepOptions {
	return AlphaSweepOptions{
		Common:  Defaults(),
		Alphas:  []float64{0.05, 0.1, 0.5, 1, 10},
		Methods: []string{"FedAvg", "IFCA", "FedClust"},
	}
}

// Check rejects unknown dataset and method names.
func (o AlphaSweepOptions) Check() error { return checkNames([]string{o.Dataset}, o.Methods) }

// AlphaSweepRow is one (alpha, method) run's accuracy.
type AlphaSweepRow struct {
	Alpha  float64
	Method string
	Acc    float64
}

var alphaSweepColumns = []Column[AlphaSweepRow]{
	{"α", func(r AlphaSweepRow) string { return fmt.Sprint(r.Alpha) }},
	{"method", func(r AlphaSweepRow) string { return r.Method }},
	{"acc_pct", func(r AlphaSweepRow) string { return f2(100 * r.Acc) }},
}

// AlphaSweepResult holds accuracy per (alpha, method), in run order.
type AlphaSweepResult struct {
	Alphas  []float64
	Methods []string
	Rows    []AlphaSweepRow
}

// Acc returns the accuracy measured for method at alpha (0 if not run).
func (r *AlphaSweepResult) Acc(method string, alpha float64) float64 {
	row, _ := find(r.Rows, func(x AlphaSweepRow) bool { return x.Method == method && x.Alpha == alpha })
	return row.Acc
}

// RunAlphaSweep measures each method across Dirichlet concentrations; one
// environment per alpha serves every method.
func RunAlphaSweep(opts AlphaSweepOptions) *AlphaSweepResult {
	w := opts.Workload()
	rows := sweep(opts.Common, alphaSweepColumns, []axis{
		{n: len(opts.Alphas), enter: func(at []int, _ *fl.Env) *fl.Env {
			w.Alpha = opts.Alphas[at[0]]
			return opts.Env(w)
		}},
		{n: len(opts.Methods)},
	}, func(at []int, env *fl.Env) AlphaSweepRow {
		m := opts.Methods[at[1]]
		return AlphaSweepRow{Alpha: w.Alpha, Method: m, Acc: NewTrainer(m, w).Run(env).FinalAcc}
	})
	return &AlphaSweepResult{Alphas: opts.Alphas, Methods: opts.Methods, Rows: rows}
}

// Report prints the sweep as a method × alpha grid.
func (r *AlphaSweepResult) Report() Report {
	g := grid[AlphaSweepRow]{
		Rows: r.Methods, Cols: labels(r.Alphas),
		Head: func(a string) string { return "α=" + a },
		At:   func(row AlphaSweepRow) (string, string) { return row.Method, fmt.Sprint(row.Alpha) },
		Cell: func(row AlphaSweepRow) string { return f1(100 * row.Acc) },
	}
	return Report{Sections: []Section{{Table: g.table(r.Rows)}}, Checks: r.ShapeChecks(), Tight: true}
}

// ShapeChecks verifies the expected heterogeneity behaviour: FedClust's
// advantage over FedAvg is largest under severe skew and shrinks (or
// vanishes) near IID.
func (r *AlphaSweepResult) ShapeChecks() []Check {
	if len(r.Alphas) < 2 {
		return nil
	}
	first, last := r.Alphas[0], r.Alphas[len(r.Alphas)-1]
	gapSkew := r.Acc("FedClust", first) - r.Acc("FedAvg", first)
	gapIID := r.Acc("FedClust", last) - r.Acc("FedAvg", last)
	return []Check{check(gapSkew > gapIID,
		"FedClust advantage larger under skew (α=%v: %+.1f pts) than near-IID (α=%v: %+.1f pts)",
		first, 100*gapSkew, last, 100*gapIID)}
}

// ScaleOptions configures the scalability study (experiment S2). It
// always runs the quick workload; Quick is not read.
type ScaleOptions struct {
	Common
	ClientSizes []int
}

// DefaultScaleOptions measures 10→40 clients.
func DefaultScaleOptions() ScaleOptions {
	return ScaleOptions{Common: Defaults(), ClientSizes: []int{10, 20, 40}}
}

// ScaleRow is one population size's timing.
type ScaleRow struct {
	Clients        int
	ClusteringTime time.Duration // warmup + proximity + HC
	RoundTime      time.Duration // one per-cluster FedAvg round
	K              int
	ARI            float64
}

var scaleColumns = []Column[ScaleRow]{
	{"Clients", func(r ScaleRow) string { return fmt.Sprint(r.Clients) }},
	{"ClusteringTime", func(r ScaleRow) string { return r.ClusteringTime.Round(time.Millisecond).String() }},
	{"1-RoundTime", func(r ScaleRow) string { return r.RoundTime.Round(time.Millisecond).String() }},
	{"K", func(r ScaleRow) string { return fmt.Sprint(r.K) }},
	{"ARI", func(r ScaleRow) string { return f2(r.ARI) }},
}

// ScaleResult is the scalability table.
type ScaleResult struct{ Rows []ScaleRow }

// RunScale times FedClust's one-shot clustering phase and a training round
// as the population grows. The clustering phase is dominated by client
// warmup (parallel) plus the O(n²·d) proximity matrix and HC — all cheap
// relative to training.
func RunScale(opts ScaleOptions) *ScaleResult {
	w := QuickWorkload(opts.Dataset)
	w.Rounds = 1
	var truth []int
	rows := sweep(opts.Common, scaleColumns, []axis{{n: len(opts.ClientSizes), enter: func(at []int, _ *fl.Env) (env *fl.Env) {
		w.Clients = opts.ClientSizes[at[0]]
		env, truth = opts.GroupEnv(w)
		return env
	}}}, func(_ []int, env *fl.Env) ScaleRow {
		start := time.Now()
		init := nn.FlattenParams(env.NewModel())
		features := core.CollectPartialWeights(env, core.Config{}, init)
		prox := linalg.PairwiseDistances(linalg.Euclidean, features)
		labels := cluster.Agglomerate(prox, cluster.Average).CutLargestGap(1, w.Clients/2)
		row := ScaleRow{Clients: w.Clients, ClusteringTime: time.Since(start),
			K: cluster.NumClusters(labels), ARI: cluster.ARI(labels, truth)}

		start = time.Now()
		(&core.FedClust{Cfg: core.Config{NumClusters: row.K}}).Run(env)
		row.RoundTime = time.Since(start)
		return row
	})
	return &ScaleResult{Rows: rows}
}

// Report prints the scalability table.
func (r *ScaleResult) Report() Report {
	return report(scaleColumns, r.Rows, nil).tight()
}
