package experiments

import (
	"fmt"
	"io"

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

// Table1Result holds the full method × dataset grid.
type Table1Result struct {
	Datasets []string
	Methods  []string
	Cells    map[string]map[string]*Table1Cell // method → dataset → cell
}

// Cell returns the entry for (method, dataset), creating it on first use.
func (t *Table1Result) Cell(method, dataset string) *Table1Cell {
	if t.Cells == nil {
		t.Cells = map[string]map[string]*Table1Cell{}
	}
	if t.Cells[method] == nil {
		t.Cells[method] = map[string]*Table1Cell{}
	}
	if t.Cells[method][dataset] == nil {
		t.Cells[method][dataset] = &Table1Cell{Method: method, Dataset: dataset}
	}
	return t.Cells[method][dataset]
}

// Table1Options selects the scope of a Table-I run.
type Table1Options struct {
	Datasets []string
	Methods  []string
	Seeds    []uint64
	Quick    bool
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
}

// DefaultTable1Options reproduces the full table with 3 seeds.
func DefaultTable1Options() Table1Options {
	return Table1Options{
		Datasets: DatasetNames,
		Methods:  MethodNames,
		Seeds:    []uint64{1, 2, 3},
	}
}

// QuickTable1Options is the reduced benchmark/CI variant.
func QuickTable1Options() Table1Options {
	return Table1Options{
		Datasets: DatasetNames,
		Methods:  MethodNames,
		Seeds:    []uint64{1},
		Quick:    true,
	}
}

// RunTable1 executes every (method, dataset, seed) combination and
// aggregates accuracies — the reproduction of the paper's Table I.
func RunTable1(opts Table1Options) *Table1Result {
	res := &Table1Result{Datasets: opts.Datasets, Methods: opts.Methods}
	for _, ds := range opts.Datasets {
		for _, seed := range opts.Seeds {
			var w Workload
			if opts.Quick {
				w = QuickWorkload(ds)
			} else {
				w = PaperWorkload(ds)
			}
			env := BuildEnv(w, seed)
			for _, m := range opts.Methods {
				trainer := NewTrainer(m, w)
				r := trainer.Run(env)
				res.Cell(m, ds).Accs = append(res.Cell(m, ds).Accs, r.FinalAcc)
				if opts.Progress != nil {
					fmt.Fprintf(opts.Progress, "  %-8s %-8s seed=%d acc=%.2f%% (%s)\n",
						m, ds, seed, 100*r.FinalAcc, r.Comm.String())
				}
			}
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

// Render writes the measured grid (and the paper's numbers alongside) in
// the paper's layout: one row per method, one column per dataset.
func (t *Table1Result) Render(w io.Writer) {
	tab := NewTable(append([]string{"Method"}, headerCols(t.Datasets)...)...)
	for _, m := range t.Methods {
		row := []string{m}
		for _, ds := range t.Datasets {
			c := t.Cell(m, ds)
			cell := "—"
			if len(c.Accs) > 0 {
				cell = fmt.Sprintf("%.2f ± %.2f", c.Mean(), c.Std())
			}
			if paper, ok := PaperTable1[m][ds]; ok {
				cell += fmt.Sprintf("  (paper %.2f)", paper[0])
			}
			row = append(row, cell)
		}
		tab.AddRow(row...)
	}
	tab.Render(w)
}

func headerCols(datasets []string) []string {
	out := make([]string, len(datasets))
	for i, d := range datasets {
		switch d {
		case "cifar10":
			out[i] = "CIFAR-10"
		case "fmnist":
			out[i] = "FMNIST"
		case "svhn":
			out[i] = "SVHN"
		default:
			out[i] = d
		}
	}
	return out
}

// ShapeChecks verifies the qualitative claims of Table I against the
// measured grid, returning one line per check. A check passes when the
// measured ordering matches the paper's:
//   - FedClust beats FedAvg and CFL on every dataset,
//   - FedClust is the best method on CIFAR-10 and FMNIST,
//   - FedClust is within a few points of the best on SVHN.
func (t *Table1Result) ShapeChecks() []string {
	var out []string
	check := func(name string, ok bool) {
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		out = append(out, fmt.Sprintf("[%s] %s", status, name))
	}
	mean := func(m, ds string) float64 { return t.Cell(m, ds).Mean() }
	for _, ds := range t.Datasets {
		check(fmt.Sprintf("FedClust > FedAvg on %s", ds), mean("FedClust", ds) > mean("FedAvg", ds))
		check(fmt.Sprintf("FedClust > CFL on %s", ds), mean("FedClust", ds) > mean("CFL", ds))
	}
	for _, ds := range []string{"cifar10", "fmnist"} {
		if !contains(t.Datasets, ds) {
			continue
		}
		best := true
		for _, m := range t.Methods {
			if m != "FedClust" && mean(m, ds) > mean("FedClust", ds) {
				best = false
			}
		}
		check(fmt.Sprintf("FedClust best on %s", ds), best)
	}
	if contains(t.Datasets, "svhn") {
		bestAcc := 0.0
		for _, m := range t.Methods {
			if a := mean(m, "svhn"); a > bestAcc {
				bestAcc = a
			}
		}
		check("FedClust within 5 pts of best on svhn", bestAcc-mean("FedClust", "svhn") <= 5)
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
