package experiments

import (
	"fmt"

	"fedclust/internal/cluster"
	"fedclust/internal/core"
	"fedclust/internal/fl"
)

// LayerAblationResult is experiment A1's per-layer table.
type LayerAblationResult struct{ Rows []LayerProbe }

var layerAblationColumns = []Column[LayerProbe]{
	{"WeightLayer", func(l LayerProbe) string { return fmt.Sprint(l.Layer) }},
	{"Layer", func(l LayerProbe) string { return l.Name }},
	{"ARI", func(l LayerProbe) string { return f2(l.ARI) }},
	{"BlockScore", func(l LayerProbe) string { return f2(l.BlockScore) }},
}

// RunLayerAblation is experiment A1 — which layer's weights make the best
// clustering feature, the quantitative version of Fig. 1 across every
// weight layer of LeNet-5: it trains the two-group population once and
// scores every weight layer.
func RunLayerAblation(opts Common) *LayerAblationResult {
	env, truth := opts.GroupEnv(opts.Workload())
	return &LayerAblationResult{Rows: probeLayers(opts, layerAblationColumns, env, truth, nil)}
}

// Report prints the per-layer table.
func (r *LayerAblationResult) Report() Report {
	return report(layerAblationColumns, r.Rows, r.ShapeChecks()).tight()
}

// ShapeChecks verifies the paper's §II claim quantitatively: the final
// layer is at least as good a clustering feature as any earlier layer.
func (r *LayerAblationResult) ShapeChecks() []Check {
	if len(r.Rows) == 0 {
		return []Check{check(false, "no layers probed")}
	}
	last := r.Rows[len(r.Rows)-1]
	best := last.ARI
	for _, row := range r.Rows {
		if row.ARI > best {
			best = row.ARI
		}
	}
	return []Check{check(last.ARI >= best, "final layer ARI (%.2f) matches the best layer (%.2f)", last.ARI, best)}
}

// VariantRow is one FedClust configuration's outcome on the two-group
// workload.
type VariantRow struct {
	Variant string
	K       int
	ARI     float64
	Acc     float64
}

// VariantResult is the table of a configuration ablation; Axis names
// what varies.
type VariantResult struct {
	Axis string
	Rows []VariantRow
}

func variantColumns(axis string) []Column[VariantRow] {
	return []Column[VariantRow]{
		{axis, func(r VariantRow) string { return r.Variant }},
		{"K", func(r VariantRow) string { return fmt.Sprint(r.K) }},
		{"ARI", func(r VariantRow) string { return f2(r.ARI) }},
		{"Acc%", func(r VariantRow) string { return f1(100 * r.Acc) }},
	}
}

// defaultSelector labels the configuration FedClust ships with.
const defaultSelector = "silhouette (default)"

// RunLinkageAblation is experiment A2: full FedClust under each HC
// linkage.
func RunLinkageAblation(opts Common) *VariantResult {
	var names []string
	var cfgs []core.Config
	for _, l := range []cluster.Linkage{cluster.Single, cluster.Complete, cluster.Average, cluster.Ward} {
		names, cfgs = append(names, l.String()), append(cfgs, core.Config{Linkage: l})
	}
	return runVariants(opts, "Linkage", names, cfgs)
}

// RunSelectorAblation is experiment A3: FedClust under each automatic
// cluster-count rule (silhouette parsimony, largest gap), plus the oracle
// fixed k=2.
func RunSelectorAblation(opts Common) *VariantResult {
	return runVariants(opts, "Rule",
		[]string{defaultSelector, "largest-gap", "oracle k=2"},
		[]core.Config{{Selector: core.SelectSilhouette}, {Selector: core.SelectLargestGap}, {NumClusters: 2}})
}

// runVariants trains each configuration in a freshly built two-group
// environment.
func runVariants(opts Common, axisName string, names []string, cfgs []core.Config) *VariantResult {
	var truth []int
	rows := sweep(opts, variantColumns(axisName), []axis{{n: len(names), enter: func([]int, *fl.Env) (env *fl.Env) {
		env, truth = opts.GroupEnv(opts.Workload())
		return env
	}}}, func(at []int, env *fl.Env) VariantRow {
		r := (&core.FedClust{Cfg: cfgs[at[0]]}).Run(env)
		return VariantRow{Variant: names[at[0]], K: cluster.NumClusters(r.Clusters),
			ARI: cluster.ARI(r.Clusters, truth), Acc: r.FinalAcc}
	})
	return &VariantResult{Axis: axisName, Rows: rows}
}

// Report prints the comparison.
func (r *VariantResult) Report() Report {
	return report(variantColumns(r.Axis), r.Rows, r.ShapeChecks()).tight()
}

// ShapeChecks verifies the default rule recovers the planted structure
// (the linkage ablation has no such row and claims nothing).
func (r *VariantResult) ShapeChecks() []Check {
	var out []Check
	for _, row := range r.Rows {
		if row.Variant == defaultSelector {
			out = append(out, check(row.ARI >= 0.99 && row.K == 2,
				"default selector finds the 2 planted groups (K=%d, ARI=%.2f)", row.K, row.ARI))
		}
	}
	return out
}
