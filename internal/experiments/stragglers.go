package experiments

import (
	"fmt"
	"slices"
	"sort"

	"fedclust/internal/fl"
	"fedclust/internal/scenario"
)

// StragglerOptions configures the system-heterogeneity sweep (experiment
// H1): every method trained under a deterministic straggler/dropout
// scenario at increasing per-round dropout rates.
type StragglerOptions struct {
	Common
	// DropoutRates are the per-round offline probabilities swept.
	DropoutRates []float64
	// StragglerFrac and Deadline parameterize the scenario model (see
	// scenario.Config); the slow cohort runs up to 4× slower.
	StragglerFrac float64
	Deadline      float64
	// Scenario disables the heterogeneity layer entirely when false —
	// the control sweep (rates are then ignored beyond the first).
	Scenario bool
	Methods  []string
}

// DefaultStragglerOptions sweeps dropout 0 → 0.5 with a 30% straggler
// cohort under the paper's six methods plus the two staleness-aware
// aggregators.
func DefaultStragglerOptions() StragglerOptions {
	return StragglerOptions{
		Common:        Defaults(),
		DropoutRates:  []float64{0, 0.1, 0.3, 0.5},
		StragglerFrac: 0.3,
		Deadline:      1,
		Scenario:      true,
		Methods:       append(append([]string{}, MethodNames...), "FedAvgStale", "FedBuff"),
	}
}

// config is the scenario model's configuration at one dropout rate.
func (o StragglerOptions) config(rate float64) scenario.Config {
	return scenario.Config{StragglerFrac: o.StragglerFrac, SlowdownMax: 4, DropoutRate: rate, Deadline: o.Deadline}
}

// Check validates every swept scenario configuration before training
// starts: scenario.New panics on a bad one, and a mid-sweep stack trace
// after minutes of training is a poor way to report a typo.
func (o StragglerOptions) Check() error {
	if o.Deadline <= 0 {
		return fmt.Errorf("non-positive deadline %v", o.Deadline)
	}
	for _, r := range o.DropoutRates {
		if err := o.config(r).Check(); err != nil {
			return err
		}
	}
	return checkNames([]string{o.Dataset}, o.Methods)
}

// StragglerRow is one (method, dropout-rate) outcome.
type StragglerRow struct {
	Method         string
	Rate           float64
	Acc            float64
	FormationRound int
}

var stragglerColumns = []Column[StragglerRow]{
	{"method", func(r StragglerRow) string { return r.Method }},
	{"dropout_rate", func(r StragglerRow) string { return fmt.Sprint(r.Rate) }},
	{"acc_pct", func(r StragglerRow) string { return f2(100 * r.Acc) }},
	{"formation_round", func(r StragglerRow) string { return fmt.Sprint(r.FormationRound) }},
}

// StragglerResult holds the sweep's rows, method-major, plus the drawn
// scenario shape.
type StragglerResult struct {
	Rates      []float64
	Methods    []string
	Rows       []StragglerRow
	Stragglers int // clients in the slow cohort (population-level, rate-independent)
	Clients    int
}

// Row returns the (method, rate) outcome, if that run was made.
func (r *StragglerResult) Row(method string, rate float64) (StragglerRow, bool) {
	return find(r.Rows, func(x StragglerRow) bool { return x.Method == method && x.Rate == rate })
}

// RunStragglers trains every method at every dropout rate under a seeded
// scenario model and records final personalized accuracy and the
// cluster-formation round.
func RunStragglers(opts StragglerOptions) *StragglerResult {
	res := &StragglerResult{Rates: opts.DropoutRates, Methods: opts.Methods}
	w := opts.Workload()
	if opts.Quick {
		// Partial work needs a divisible local pass: with the quick
		// preset's single epoch a straggler either finishes everything or
		// nothing, and the sweep would measure permanent exclusion
		// instead of the partial-epoch weighting it exists to exercise.
		w.Epochs = 2
	}
	rates := opts.DropoutRates
	if !opts.Scenario && len(rates) > 1 {
		rates = rates[:1] // control run: nothing varies across rates
	}
	// One environment serves the whole sweep: only the scenario model
	// differs per rate, and warm engine-runtime reuse is bit-equivalent
	// to a fresh build (pinned by the engine's warm-runtime tests).
	res.Rows = sweep(opts.Common, stragglerColumns, []axis{
		{n: len(rates), enter: func(at []int, env *fl.Env) *fl.Env {
			if env == nil {
				env = opts.Env(w)
				res.Clients = len(env.Clients)
			}
			if opts.Scenario {
				model := scenario.New(opts.config(rates[at[0]]), opts.Seed, len(env.Clients))
				env.Participation.Scenario = model
				res.Stragglers = model.Stragglers()
			}
			return env
		}},
		{n: len(opts.Methods)},
	}, func(at []int, env *fl.Env) StragglerRow {
		m := opts.Methods[at[1]]
		r := NewTrainer(m, w).Run(env)
		return StragglerRow{Method: m, Rate: rates[at[0]], Acc: r.FinalAcc, FormationRound: r.ClusterFormationRound}
	})
	// The CSV has always listed the sweep method-major.
	sort.SliceStable(res.Rows, func(i, j int) bool {
		return slices.Index(opts.Methods, res.Rows[i].Method) < slices.Index(opts.Methods, res.Rows[j].Method)
	})
	return res
}

// Report prints accuracy and cluster-formation grids (method × rate).
func (r *StragglerResult) Report() Report {
	g := grid[StragglerRow]{
		Rows: r.Methods, Cols: labels(r.Rates),
		Head: func(rate string) string { return "acc@drop=" + rate },
		At:   func(row StragglerRow) (string, string) { return row.Method, fmt.Sprint(row.Rate) },
		Cell: func(row StragglerRow) string { return f1(100 * row.Acc) },
	}
	acc := g.table(r.Rows)
	g.Head = func(rate string) string { return "formed@drop=" + rate }
	g.Cell = func(row StragglerRow) string {
		if row.FormationRound < 0 {
			return "n/a"
		}
		return fmt.Sprint(row.FormationRound)
	}
	return Report{
		Sections: []Section{
			{Text: fmt.Sprintf("scenario: %d/%d clients in the straggler cohort\n", r.Stragglers, r.Clients)},
			{Table: acc}, {Table: g.table(r.Rows)},
		},
		Checks: r.ShapeChecks(), CSV: tableOf(stragglerColumns, r.Rows),
	}
}

// ShapeChecks verifies the expected system-heterogeneity behaviour.
func (r *StragglerResult) ShapeChecks() []Check {
	if len(r.Rates) < 2 {
		return nil
	}
	// -dropouts order is user-controlled; compare the extreme rates, not
	// the first and last listed.
	lo, hi := r.Rates[0], r.Rates[0]
	for _, rate := range r.Rates[1:] {
		if rate < lo {
			lo = rate
		}
		if rate > hi {
			hi = rate
		}
	}
	var out []Check
	c, okLo := r.Row("FedAvg", lo)
	chi, okHi := r.Row("FedAvg", hi)
	if okLo && okHi {
		out = append(out, check(c.Acc+0.03 >= chi.Acc,
			"FedAvg does not improve under dropout (%.1f%% @ %v vs %.1f%% @ %v)",
			100*c.Acc, lo, 100*chi.Acc, hi))
	}
	if s, ok := r.Row("FedAvgStale", hi); ok && okHi {
		out = append(out, check(s.Acc+0.05 >= chi.Acc,
			"stale-decay aggregation holds up at drop=%v (%.1f%% vs FedAvg %.1f%%)",
			hi, 100*s.Acc, 100*chi.Acc))
	}
	return out
}
