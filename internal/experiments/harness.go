package experiments

import (
	"fmt"
	"io"
	"strings"

	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/wire"
)

// Common is what every experiment is given: the synthetic dataset, the
// root seed, paper- or CI-sized workload, where to echo rows while it
// runs, and the compute path, uplink codec and round observer of every
// environment it builds. The zero DType/Codec/TopKFrac/Observer are the
// float64, dense, unobserved golden path. An experiment's own options
// embed Common and read what applies to them (Table I sweeps its own
// dataset and seed lists; Fig. 1 has its own dataset).
type Common struct {
	Dataset  string
	Seed     uint64
	Quick    bool
	Progress io.Writer
	DType    fl.DType
	Codec    wire.Codec
	TopKFrac float64
	Observer fl.RoundObserver
}

// Defaults is where every experiment's defaults start: the fmnist
// stand-in, seed 1.
func Defaults() Common { return Common{Dataset: "fmnist", Seed: 1} }

// Check rejects a dataset no preset exists for.
func (c Common) Check() error { return checkNames([]string{c.Dataset}, nil) }

// Workload picks the paper-scale or the quick schedule for c.Dataset.
func (c Common) Workload() Workload {
	if c.Quick {
		return QuickWorkload(c.Dataset)
	}
	return PaperWorkload(c.Dataset)
}

// Env materializes w with a Dir(w.Alpha) population.
func (c Common) Env(w Workload) *fl.Env {
	return c.workloadEnv(w, func(_ data.SynthConfig, train, test *data.Dataset) []*fl.Client {
		return fl.BuildDirichletClients(train, test, w.Clients, w.Alpha, rng.New(c.Seed).Derive(0xd17))
	})
}

// GroupEnv materializes w with the two-group population — the lower and
// upper half of the classes, w.Clients split between them — and returns
// each client's ground-truth group.
func (c Common) GroupEnv(w Workload) (env *fl.Env, truth []int) {
	env = c.workloadEnv(w, func(cfg data.SynthConfig, train, test *data.Dataset) (clients []*fl.Client) {
		perGroup := w.Clients / 2
		clients, truth = fl.BuildGroupClients(train, test, classHalves(cfg.Classes),
			[]int{perGroup, w.Clients - perGroup}, rng.New(c.Seed))
		return clients
	})
	return env, truth
}

// classHalves splits the class labels into the two ground-truth groups.
func classHalves(classes int) [][]int {
	groups := make([][]int, 2)
	for k := 0; k < classes; k++ {
		g := 0
		if k >= classes/2 {
			g = 1
		}
		groups[g] = append(groups[g], k)
	}
	return groups
}

// workloadEnv generates w's dataset once, lets partition split it into
// clients, and wraps them in a LeNet-5 environment.
func (c Common) workloadEnv(w Workload, partition func(cfg data.SynthConfig, train, test *data.Dataset) []*fl.Client) *fl.Env {
	cfg := workloadDataset(w, c.Seed)
	train, test := data.Generate(cfg)
	return c.newEnv(partition(cfg, train, test), func(r *rng.Rng) *nn.Sequential {
		return nn.LeNet5(r, cfg.C, cfg.H, cfg.W, cfg.Classes, w.WidthScale)
	}, w.Rounds, fl.LocalConfig{Epochs: w.Epochs, BatchSize: w.BatchSize, LR: w.LR, Momentum: w.Momentum})
}

// newEnv is the one place the options become an fl.Env.
func (c Common) newEnv(clients []*fl.Client, factory func(*rng.Rng) *nn.Sequential, rounds int, local fl.LocalConfig) *fl.Env {
	return &fl.Env{
		Clients: clients, Factory: factory, Rounds: rounds, Local: local, Seed: c.Seed,
		DType: c.DType, Codec: c.Codec, TopKFrac: c.TopKFrac, Observer: c.Observer,
	}
}

// Column is one field of a row type in one of its forms — a column of the
// aligned table, or a column of the CSV file — declared once: the line
// echoed while the experiment runs is derived from the same list.
type Column[R any] struct {
	Name string
	Text func(R) string
}

// tableOf flattens rows through cols.
func tableOf[R any](cols []Column[R], rows []R) *Table {
	tab := &Table{}
	for _, col := range cols {
		tab.Header = append(tab.Header, col.Name)
	}
	for _, row := range rows {
		cells := make([]string, len(cols))
		for i, col := range cols {
			cells[i] = col.Text(row)
		}
		tab.Rows = append(tab.Rows, cells)
	}
	return tab
}

// progress echoes one finished row as "  name=value name=value …".
func progress[R any](c Common, cols []Column[R], row R) {
	if c.Progress == nil {
		return
	}
	parts := make([]string, len(cols))
	for i, col := range cols {
		parts[i] = col.Name + "=" + col.Text(row)
	}
	fmt.Fprintf(c.Progress, "  %s\n", strings.Join(parts, " "))
}

// axis is one nested loop of a sweep: n steps, and what entering a step
// does to the environment — build a fresh one, mutate the one the sweep
// is in, or (nil) nothing. at holds the current step of every axis.
type axis struct {
	n     int
	enter func(at []int, env *fl.Env) *fl.Env
}

// sweep is the package's one loop over runs: the axes nest outermost
// first, run measures one row at the innermost step, and the order, the
// moments an environment is rebuilt rather than reused, and what is
// echoed are decided here.
func sweep[R any](c Common, cols []Column[R], axes []axis, run func(at []int, env *fl.Env) R) (rows []R) {
	var env *fl.Env
	at := make([]int, len(axes))
	var walk func(k int)
	walk = func(k int) {
		if k == len(axes) {
			row := run(at, env)
			progress(c, cols, row)
			rows = append(rows, row)
			return
		}
		for at[k] = 0; at[k] < axes[k].n; at[k]++ {
			if axes[k].enter != nil {
				env = axes[k].enter(at, env)
			}
			walk(k + 1)
		}
	}
	walk(0)
	return rows
}

// find returns the first row ok accepts.
func find[R any](rows []R, ok func(R) bool) (row R, found bool) {
	for _, r := range rows {
		if ok(r) {
			return r, true
		}
	}
	return row, false
}

// grid is the method × axis pivot of long-form rows: one table row per
// Rows label, one column per Cols label (headed Head(label)), each cell
// the Cell of the row At places there, "-" where that run was not made.
type grid[R any] struct {
	Rows, Cols []string
	Head       func(col string) string
	At         func(R) (row, col string)
	Cell       func(R) string
}

func (g grid[R]) table(rows []R) *Table {
	tab := NewTable("Method")
	for _, ck := range g.Cols {
		tab.Header = append(tab.Header, g.Head(ck))
	}
	for _, rk := range g.Rows {
		cells := []string{rk}
		for _, ck := range g.Cols {
			row, ok := find(rows, func(r R) bool { a, b := g.At(r); return a == rk && b == ck })
			if ok {
				cells = append(cells, g.Cell(row))
			} else {
				cells = append(cells, "-")
			}
		}
		tab.AddRow(cells...)
	}
	return tab
}

// Check is one qualitative claim of the paper (or of an extension study)
// tested against measured rows.
type Check struct {
	OK   bool
	Text string
}

func check(ok bool, format string, args ...any) Check {
	return Check{OK: ok, Text: fmt.Sprintf(format, args...)}
}

func (c Check) String() string {
	if c.OK {
		return "[PASS] " + c.Text
	}
	return "[FAIL] " + c.Text
}

// Section is one block of a report: text, a table, or a caption and its
// table.
type Section struct {
	Text  string
	Table *Table
}

// Report is what a result renders to: sections separated by blank lines,
// then the shape checks — under a blank line, or with Tight directly
// under the last section — plus the CSV form where the rows have one.
type Report struct {
	Sections []Section
	Checks   []Check
	Tight    bool
	CSV      *Table
}

// report is the common case: one table of rows.
func report[R any](cols []Column[R], rows []R, checks []Check) Report {
	return Report{Sections: []Section{{Table: tableOf(cols, rows)}}, Checks: checks}
}

func (r Report) tight() Report {
	r.Tight = true
	return r
}

// Render writes the sections and the checks.
func (r Report) Render(w io.Writer) {
	for i, s := range r.Sections {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprint(w, s.Text)
		if s.Table != nil {
			s.Table.Render(w)
		}
	}
	if !r.Tight {
		fmt.Fprintln(w)
	}
	for _, c := range r.Checks {
		fmt.Fprintln(w, c)
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// labels are the axis labels of a swept list, as %v prints them.
func labels[T any](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}
