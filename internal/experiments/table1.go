package experiments

import (
	"fmt"
	"slices"

	"fedclust/internal/fl"
	"fedclust/internal/stats"
)

// Table1Cell is one (method, dataset) entry: accuracy over seeds.
type Table1Cell struct {
	Method  string
	Dataset string
	Accs    []float64 // fraction in [0,1], one per seed
}

// Mean returns the mean accuracy in percent.
func (c Table1Cell) Mean() float64 { return 100 * stats.Mean(c.Accs) }

// Std returns the accuracy standard deviation in percent.
func (c Table1Cell) Std() float64 { return 100 * stats.Std(c.Accs) }

// Table1Result holds the full method × dataset grid, method-major.
type Table1Result struct {
	Datasets []string
	Methods  []string
	Cells    []Table1Cell
}

// Cell returns the entry for (method, dataset); a pair that was not run
// is an entry with no accuracies.
func (t *Table1Result) Cell(method, dataset string) Table1Cell {
	c, _ := find(t.Cells, func(c Table1Cell) bool { return c.Method == method && c.Dataset == dataset })
	return c
}

// Table1Options selects the scope of a Table-I run. The grid has its own
// dataset and seed lists; Common's Dataset and Seed are not read.
type Table1Options struct {
	Common
	Datasets []string
	Methods  []string
	Seeds    []uint64
}

// Check rejects unknown dataset and method names.
func (o Table1Options) Check() error { return checkNames(o.Datasets, o.Methods) }

// table1Run is one (method, dataset, seed) training run.
type table1Run struct {
	Method, Dataset string
	Seed            uint64
	Acc             float64
	Comm            fl.CommStats
}

var table1RunColumns = []Column[table1Run]{
	{"method", func(r table1Run) string { return r.Method }},
	{"dataset", func(r table1Run) string { return r.Dataset }},
	{"seed", func(r table1Run) string { return fmt.Sprint(r.Seed) }},
	{"acc_pct", func(r table1Run) string { return f2(100 * r.Acc) }},
	{"comm", func(r table1Run) string { return r.Comm.String() }},
}

// RunTable1 executes every (method, dataset, seed) combination and
// aggregates accuracies — the reproduction of the paper's Table I. One
// environment per (dataset, seed) serves every method.
func RunTable1(opts Table1Options) *Table1Result {
	c := opts.Common
	var w Workload
	runs := sweep(c, table1RunColumns, []axis{
		{n: len(opts.Datasets)},
		{n: len(opts.Seeds), enter: func(at []int, _ *fl.Env) *fl.Env {
			c.Dataset, c.Seed = opts.Datasets[at[0]], opts.Seeds[at[1]]
			w = c.Workload()
			return c.Env(w)
		}},
		{n: len(opts.Methods)},
	}, func(at []int, env *fl.Env) table1Run {
		m := opts.Methods[at[2]]
		r := NewTrainer(m, w).Run(env)
		return table1Run{Method: m, Dataset: c.Dataset, Seed: c.Seed, Acc: r.FinalAcc, Comm: r.Comm}
	})
	res := &Table1Result{Datasets: opts.Datasets, Methods: opts.Methods}
	for _, m := range opts.Methods {
		for _, ds := range opts.Datasets {
			cell := Table1Cell{Method: m, Dataset: ds}
			for _, r := range runs {
				if r.Method == m && r.Dataset == ds {
					cell.Accs = append(cell.Accs, r.Acc)
				}
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	return res
}

// PaperTable1 is the published Table I (percent accuracy, mean ± std) for
// shape comparison in reports (measured numbers: bench/README.md; the
// paper-vs-measured table is ROADMAP item 4).
var PaperTable1 = map[string]map[string][2]float64{
	"FedAvg":   {"cifar10": {38.25, 2.98}, "fmnist": {81.93, 0.64}, "svhn": {61.26, 0.95}},
	"FedProx":  {"cifar10": {51.60, 1.40}, "fmnist": {74.53, 2.16}, "svhn": {79.64, 0.80}},
	"CFL":      {"cifar10": {41.50, 0.35}, "fmnist": {74.01, 1.19}, "svhn": {61.96, 1.58}},
	"IFCA":     {"cifar10": {50.51, 0.61}, "fmnist": {84.57, 0.41}, "svhn": {74.57, 0.40}},
	"PACFL":    {"cifar10": {51.02, 0.24}, "fmnist": {85.30, 0.28}, "svhn": {76.35, 0.46}},
	"FedClust": {"cifar10": {60.25, 0.58}, "fmnist": {95.51, 0.17}, "svhn": {78.23, 0.30}},
}

var table1Columns = []Column[Table1Cell]{
	{"method", func(c Table1Cell) string { return c.Method }},
	{"dataset", func(c Table1Cell) string { return c.Dataset }},
	{"mean_acc_pct", func(c Table1Cell) string { return f2(c.Mean()) }},
	{"std_acc_pct", func(c Table1Cell) string { return f2(c.Std()) }},
	{"paper_mean_pct", func(c Table1Cell) string {
		if p, ok := PaperTable1[c.Method][c.Dataset]; ok {
			return f2(p[0])
		}
		return ""
	}},
}

var datasetTitles = map[string]string{"cifar10": "CIFAR-10", "fmnist": "FMNIST", "svhn": "SVHN"}

// Report lays the measured grid (and the paper's numbers alongside) out
// as the paper does: one row per method, one column per dataset.
func (t *Table1Result) Report() Report {
	g := grid[Table1Cell]{
		Rows: t.Methods, Cols: t.Datasets,
		Head: func(ds string) string { return datasetTitles[ds] },
		At:   func(c Table1Cell) (string, string) { return c.Method, c.Dataset },
		Cell: func(c Table1Cell) string {
			cell := "—"
			if len(c.Accs) > 0 {
				cell = fmt.Sprintf("%.2f ± %.2f", c.Mean(), c.Std())
			}
			if paper, ok := PaperTable1[c.Method][c.Dataset]; ok {
				cell += fmt.Sprintf("  (paper %.2f)", paper[0])
			}
			return cell
		},
	}
	return Report{Sections: []Section{{Table: g.table(t.Cells)}}, Checks: t.ShapeChecks(), CSV: tableOf(table1Columns, t.Cells)}
}

// ShapeChecks verifies the qualitative claims of Table I against the
// measured grid. A check passes when the measured ordering matches the
// paper's:
//   - FedClust beats FedAvg and CFL on every dataset,
//   - FedClust is the best method on CIFAR-10 and FMNIST,
//   - FedClust is within a few points of the best on SVHN.
func (t *Table1Result) ShapeChecks() []Check {
	var out []Check
	mean := func(m, ds string) float64 { return t.Cell(m, ds).Mean() }
	for _, ds := range t.Datasets {
		out = append(out,
			check(mean("FedClust", ds) > mean("FedAvg", ds), "FedClust > FedAvg on %s", ds),
			check(mean("FedClust", ds) > mean("CFL", ds), "FedClust > CFL on %s", ds))
	}
	for _, ds := range []string{"cifar10", "fmnist"} {
		if !slices.Contains(t.Datasets, ds) {
			continue
		}
		best := true
		for _, m := range t.Methods {
			if m != "FedClust" && mean(m, ds) > mean("FedClust", ds) {
				best = false
			}
		}
		out = append(out, check(best, "FedClust best on %s", ds))
	}
	if slices.Contains(t.Datasets, "svhn") {
		bestAcc := 0.0
		for _, m := range t.Methods {
			if a := mean(m, "svhn"); a > bestAcc {
				bestAcc = a
			}
		}
		// The conversion rounds mean's 100·x before the subtraction.
		out = append(out, check(bestAcc-float64(mean("FedClust", "svhn")) <= 5,"FedClust within 5 pts of best on svhn"))
	}
	return out
}
