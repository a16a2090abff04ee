package experiments

import (
	"fmt"

	"fedclust/internal/core"
	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
)

// NewcomerOptions configures experiment F2: the paper's step ⑥ — dynamic
// incorporation of clients that arrive after the one-shot clustering.
type NewcomerOptions struct {
	Common
	// Newcomers is how many late arrivals to simulate (half from each
	// ground-truth group).
	Newcomers int
}

// DefaultNewcomerOptions simulates 6 late arrivals.
func DefaultNewcomerOptions() NewcomerOptions {
	return NewcomerOptions{Common: Common{Dataset: "fmnist", Seed: 1, Quick: true}, Newcomers: 6}
}

// NewcomerRow is one late arrival: where it was routed and how the model
// it was served does on its data.
type NewcomerRow struct {
	Newcomer, Group int
	Cluster, Want   int
	ServedAcc       float64
	InitAcc         float64
}

var newcomerColumns = []Column[NewcomerRow]{
	{"newcomer", func(r NewcomerRow) string { return fmt.Sprint(r.Newcomer) }},
	{"group", func(r NewcomerRow) string { return fmt.Sprint(r.Group) }},
	{"cluster", func(r NewcomerRow) string { return fmt.Sprint(r.Cluster) }},
	{"want", func(r NewcomerRow) string { return fmt.Sprint(r.Want) }},
	{"served_acc%", func(r NewcomerRow) string { return f1(100 * r.ServedAcc) }},
}

// NewcomerResult reports routing accuracy and served-model quality for
// late arrivals.
type NewcomerResult struct {
	Rows []NewcomerRow
	// Routed counts newcomers assigned to the cluster holding their
	// ground-truth group's founders.
	Routed, Total int
	// ServedAcc is the mean accuracy of newcomers evaluated with their
	// assigned cluster model; GlobalInitAcc is the same clients under the
	// untrained initial model (the floor).
	ServedAcc     float64
	GlobalInitAcc float64
}

// RunNewcomer trains FedClust on a two-group founding population, then
// arrives opts.Newcomers fresh clients with group-consistent data. Each
// newcomer follows the paper's protocol: download w₀, train locally once,
// upload final-layer weights, get routed to the nearest centroid, and is
// served that cluster's model.
func RunNewcomer(opts NewcomerOptions) *NewcomerResult {
	w := opts.Workload()
	env, truth := opts.GroupEnv(w)
	f := &core.FedClust{}
	res := f.Run(env)

	// Map each ground-truth group to the founders' majority cluster.
	groupCluster := map[int]int{}
	counts := map[[2]int]int{}
	for i, g := range truth {
		counts[[2]int{g, res.Clusters[i]}]++
	}
	for g := 0; g < 2; g++ {
		best, bestC := -1, -1
		for key, c := range counts {
			if key[0] == g && c > best {
				best, bestC = c, key[1]
			}
		}
		groupCluster[g] = bestC
	}

	// Fresh samples for newcomers from the SAME class prototypes the
	// founders trained on (distinct stream labels ⇒ independent draws).
	cfg := workloadDataset(w, opts.Seed)
	perClass := cfg.TrainPerClass / 4
	if perClass < 10 {
		perClass = 10
	}
	train := data.GenerateExtra(cfg, 0x4e3c0001, perClass)
	test := data.GenerateExtra(cfg, 0x4e3c0002, perClass/2+1)
	groups := classHalves(cfg.Classes)

	// One model and one scratch place every arrival, as a server holds.
	out := &NewcomerResult{Total: opts.Newcomers}
	model, served, initModel := env.NewModel(), env.NewModel(), env.NewModel()
	init := nn.FlattenParams(initModel)
	var scratch fl.TrainScratch
	for i := 0; i < opts.Newcomers; i++ {
		row := NewcomerRow{Newcomer: i, Group: i % 2, Want: groupCluster[i%2]}
		newTest := test.FilterClasses(groups[row.Group])
		// Protocol: local training from w₀, upload final-layer feature.
		localPass(env, &scratch, model, init, train.FilterClasses(groups[row.Group]),
			rng.New(opts.Seed).Derive(0x4e3c, uint64(i)))
		row.Cluster = f.State.AssignNewcomer(f.State.NewcomerFeature(model))
		if row.Cluster == row.Want {
			out.Routed++
		}
		nn.LoadParams(served, f.State.Models[row.Cluster])
		_, row.ServedAcc = fl.Evaluate(served, newTest, 64)
		_, row.InitAcc = fl.Evaluate(initModel, newTest, 64)
		out.ServedAcc += row.ServedAcc
		out.GlobalInitAcc += row.InitAcc
		progress(opts.Common, newcomerColumns, row)
		out.Rows = append(out.Rows, row)
	}
	out.ServedAcc /= float64(opts.Newcomers)
	out.GlobalInitAcc /= float64(opts.Newcomers)
	return out
}

// Report prints the newcomer study summary.
func (r *NewcomerResult) Report() Report {
	tab := NewTable("Metric", "Value")
	tab.AddRow("newcomers routed to correct cluster", fmt.Sprintf("%d / %d", r.Routed, r.Total))
	tab.AddRow("mean served-model accuracy", fmt.Sprintf("%.1f%%", 100*r.ServedAcc))
	tab.AddRow("untrained-init accuracy (floor)", fmt.Sprintf("%.1f%%", 100*r.GlobalInitAcc))
	return Report{Sections: []Section{{Table: tab}}, Checks: r.ShapeChecks(), Tight: true}
}

// ShapeChecks verifies the dynamic-incorporation claim.
func (r *NewcomerResult) ShapeChecks() []Check {
	return []Check{
		check(r.Routed == r.Total, "all newcomers routed to their group's cluster (%d/%d)", r.Routed, r.Total),
		check(r.ServedAcc > r.GlobalInitAcc, "served cluster model beats untrained init (%.1f%% > %.1f%%)",
			100*r.ServedAcc, 100*r.GlobalInitAcc),
	}
}
