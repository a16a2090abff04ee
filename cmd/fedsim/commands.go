package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fedclust/internal/experiments"
	"fedclust/internal/fl"
	"fedclust/internal/wire"
)

// command is one row of the subcommand table. bind declares exactly the
// flags the subcommand reads — straight onto its options where it has
// them — and returns what to do once they are parsed; a flag it does not
// bind is rejected by the flag package, never ignored.
type command struct {
	name  string
	code  string // the artifact regenerated ("Table I", "C1"); empty off the experiment path
	title string
	query bool // prints an answer and nothing else, so the output stays pipeable
	bind  func(fs *flag.FlagSet, s *shared) job
}

// job is a subcommand whose flags have been parsed: check validates
// them, run does the work.
type job struct {
	check func() error
	run   func(stdout, stderr io.Writer) int
}

var commands = []command{
	{name: "table1", code: "Table I", title: "test accuracy under Non-IID Dir(0.1)", bind: func(fs *flag.FlagSet, s *shared) job {
		o := experiments.Table1Options{Datasets: experiments.DatasetNames, Methods: experiments.MethodNames, Seeds: []uint64{1, 2, 3}}
		s.common(fs, &o.Common, quick|federated|csv)
		listVar(fs, &o.Seeds, "seeds", "comma-separated seeds", func(v string) (uint64, error) { return strconv.ParseUint(v, 10, 64) })
		listVar(fs, &o.Datasets, "datasets", "comma-separated datasets", asString)
		listVar(fs, &o.Methods, "methods", "comma-separated methods", asString)
		return experiment(s, &o, &o.Common, experiments.RunTable1)
	}},
	{name: "fig1", code: "Fig. 1", title: "distance matrices from different layer weights", bind: func(fs *flag.FlagSet, s *shared) job {
		o := experiments.DefaultFig1Options()
		s.common(fs, &o.Common, quick|seed)
		return experiment(s, &o, &o.Common, experiments.RunFig1)
	}},
	{name: "comm", code: "C1", title: "communication cost of cluster formation", bind: func(fs *flag.FlagSet, s *shared) job {
		o := experiments.DefaultCommOptions()
		s.common(fs, &o.Common, quick|seed|federated)
		s.roundsVar(fs, &o.Rounds)
		return experiment(s, &o, &o.Common, experiments.RunComm)
	}},
	{name: "newcomer", code: "F2", title: "dynamic newcomer incorporation (paper step ⑥)", bind: func(fs *flag.FlagSet, s *shared) job {
		o := experiments.DefaultNewcomerOptions()
		s.common(fs, &o.Common, quick|seed|federated)
		return experiment(s, &o, &o.Common, experiments.RunNewcomer)
	}},
	{name: "sweep-alpha", code: "S1", title: "heterogeneity sweep (Dirichlet alpha)", bind: func(fs *flag.FlagSet, s *shared) job {
		o := experiments.DefaultAlphaSweepOptions()
		s.common(fs, &o.Common, quick|seed|federated)
		return experiment(s, &o, &o.Common, experiments.RunAlphaSweep)
	}},
	{name: "scale", code: "S2", title: "scalability of one-shot clustering", bind: func(fs *flag.FlagSet, s *shared) job {
		o := experiments.DefaultScaleOptions()
		s.common(fs, &o.Common, seed|federated)
		return experiment(s, &o, &o.Common, experiments.RunScale)
	}},
	{name: "ablation-layer", code: "A1", title: "which layer's weights cluster best", bind: plain(quick|seed, experiments.RunLayerAblation)},
	{name: "ablation-linkage", code: "A2", title: "FedClust under each HC linkage", bind: plain(quick|seed|federated, experiments.RunLinkageAblation)},
	{name: "ablation-selector", code: "A3", title: "automatic cluster-count rules", bind: plain(quick|seed|federated, experiments.RunSelectorAblation)},
	{name: "ablation-compression", code: "A4", title: "accuracy-vs-measured-bytes frontier of the uplink codecs", bind: func(fs *flag.FlagSet, s *shared) job {
		o := experiments.DefaultCompressionOptions()
		s.common(fs, &o.Common, quick|seed|federated|csv)
		return experiment(s, &o, &o.Common, experiments.RunCompression)
	}},
	{name: "stragglers", code: "H1", title: "system heterogeneity — stragglers, dropouts, staleness", bind: func(fs *flag.FlagSet, s *shared) job {
		o := experiments.DefaultStragglerOptions()
		s.common(fs, &o.Common, quick|seed|federated|csv)
		fs.BoolVar(&o.Scenario, "scenario", o.Scenario, "enable the system-heterogeneity scenario layer")
		fs.Float64Var(&o.Deadline, "deadline", o.Deadline, "virtual round deadline in nominal local-pass units")
		fs.Float64Var(&o.StragglerFrac, "straggler-frac", o.StragglerFrac, "fraction of clients in the slow cohort")
		listVar(fs, &o.DropoutRates, "dropouts", "comma-separated per-round dropout rates", asFloat)
		listVar(fs, &o.Methods, "methods", "comma-separated methods", asString)
		return experiment(s, &o, &o.Common, experiments.RunStragglers)
	}},
	{name: "hostile", code: "R1", title: "hostile world — byzantine clients, churn, drift", bind: func(fs *flag.FlagSet, s *shared) job {
		o := experiments.DefaultHostileOptions()
		s.common(fs, &o.Common, quick|seed|federated|csv)
		fs.Float64Var(&o.Alpha, "alpha", 0, "Dirichlet concentration override for the hostile population, 0 = experiment default Dir(1)")
		fs.StringVar(&o.Attack, "attack", o.Attack, "byzantine behavior: none, label-noise, sign-flip, garbage, mixed")
		listVar(fs, &o.ByzantineFracs, "byzantine-frac", "comma-separated attacker-cohort fractions swept", asFloat)
		fs.Float64Var(&o.ChurnFrac, "churn", 0, "fraction of clients that join or leave mid-training")
		fs.Float64Var(&o.DriftFrac, "drift-frac", 0, "fraction of clients whose distribution drifts")
		fs.IntVar(&o.DriftRound, "drift-round", 0, "round at which drifted clients switch distribution")
		listVar(fs, &o.Aggregators, "aggregator", "comma-separated server aggregation strategies swept", asString)
		listVar(fs, &o.Methods, "methods", "comma-separated methods", asString)
		return experiment(s, &o, &o.Common, experiments.RunHostile)
	}},
	{name: "serve", title: "run federated rounds as a network coordinator", bind: bindServe},
	{name: "join", title: "serve local training as a node of a coordinator", bind: func(fs *flag.FlagSet, s *shared) job {
		var addr, name string
		s.workersVar(fs)
		addrVar(fs, &addr, "coordinator address to dial")
		fs.StringVar(&name, "name", "", "node name announced to the coordinator (default host-pid)")
		fs.Float64Var(&s.rejoin, "rejoin", 0, "seconds to keep re-dialing a lost coordinator (0 = exit on disconnect)")
		return job{run: func(io.Writer, io.Writer) int { runJoin(addr, name, s.rejoin); return 0 }}
	}},
	{name: "status", title: "query a running coordinator's control plane", query: true, bind: func(fs *flag.FlagSet, s *shared) job {
		var addr string
		addrVar(fs, &addr, "the coordinator's -control address")
		trigger := fs.Bool("trigger-checkpoint", false, "also arm an on-demand checkpoint")
		return job{run: func(io.Writer, io.Writer) int { runStatus(addr, *trigger); return 0 }}
	}},
	{name: "tail", title: "render a JSONL round journal (optionally following it)", query: true, bind: func(fs *flag.FlagSet, s *shared) job {
		s.journalVar(fs, "the journal to read")
		last := fs.Int("last", 10, "round events to show (0 = all)")
		follow := fs.Bool("follow", false, "keep watching the journal for new events")
		return job{
			check: func() error {
				if *last < 0 {
					return fmt.Errorf("invalid -last %d: must be non-negative (0 shows every round)", *last)
				}
				return nil
			},
			run: func(io.Writer, io.Writer) int { runTail(s.journal, *last, *follow); return 0 },
		}
	}},
}

// plain binds an experiment whose options are the common ones alone.
func plain[R interface{ Report() experiments.Report }](set int, run func(experiments.Common) R) func(*flag.FlagSet, *shared) job {
	return func(fs *flag.FlagSet, s *shared) job {
		o := experiments.Defaults()
		s.common(fs, &o, set)
		return experiment(s, &o, &o, run)
	}
}

// shared holds the flags more than one subcommand reads. Each is declared
// once, by the method that binds it; a subcommand binds the ones it reads.
type shared struct {
	workers, ckptEvery        int
	rounds                    *int // bound onto the subcommand's own options
	timeout, rejoin, topkFrac float64
	journal, csv              string
	dtypeName, codecName      string
	dtype                     fl.DType   // dtypeName, parsed by check
	codec                     wire.Codec // codecName, parsed by check
}

// What an in-process experiment reads besides -workers and -dtype.
const (
	quick     = 1 << iota // -quick
	seed                  // -seed
	federated             // it runs federated rounds: -codec, -topk-frac, -journal
	csv                   // its report has a CSV form: -csv
)

func (s *shared) common(fs *flag.FlagSet, c *experiments.Common, set int) {
	s.computeVars(fs)
	if set&quick != 0 {
		// Off unless given, whatever the options' own default: the library
		// defaults of the cheap studies are quick, the command line's never were.
		fs.BoolVar(&c.Quick, "quick", false, "reduced workload for fast runs")
	}
	if set&seed != 0 {
		fs.Uint64Var(&c.Seed, "seed", 1, "root seed")
	}
	if set&federated != 0 {
		s.wireVars(fs)
		s.journalVar(fs, "append a JSONL round journal (one event per round) to this file")
	}
	if set&csv != 0 {
		fs.StringVar(&s.csv, "csv", "", "also write results to this CSV file")
	}
}

func (s *shared) workersVar(fs *flag.FlagSet) {
	fs.IntVar(&s.workers, "workers", 0, "cap simulator parallelism (sets GOMAXPROCS; default all cores)")
}

func (s *shared) computeVars(fs *flag.FlagSet) {
	s.workersVar(fs)
	fs.StringVar(&s.dtypeName, "dtype", "float64", "numeric compute path: float64 (golden reference) or float32 (SIMD kernels, ~2x+ local training)")
}

func (s *shared) wireVars(fs *flag.FlagSet) {
	fs.StringVar(&s.codecName, "codec", "float64", "uplink parameter codec: float64, float32, quant8, topk, topk-quant8")
	fs.Float64Var(&s.topkFrac, "topk-frac", 0, "sparse codecs' kept coordinate fraction in (0,1] (0 = the 1% default)")
}

func (s *shared) journalVar(fs *flag.FlagSet, usage string) {
	fs.StringVar(&s.journal, "journal", "", usage)
}

func (s *shared) roundsVar(fs *flag.FlagSet, p *int) {
	s.rounds = p
	fs.IntVar(p, "rounds", 0, "override training rounds (0 = the default)")
}

func addrVar(fs *flag.FlagSet, p *string, usage string) {
	fs.StringVar(p, "addr", ":7171", usage)
}

// listVar binds a comma-separated flag onto a slice: its default is what
// the options hold, and an empty value keeps it.
func listVar[T any](fs *flag.FlagSet, p *[]T, name, usage string, parse func(string) (T, error)) {
	def := strings.Trim(strings.ReplaceAll(fmt.Sprint(*p), " ", ","), "[]")
	fs.Func(name, fmt.Sprintf("%s (default %s)", usage, def), func(v string) error {
		var out []T
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			x, err := parse(part)
			if err != nil {
				return err
			}
			out = append(out, x)
		}
		if len(out) > 0 {
			*p = out
		}
		return nil
	})
}

func asString(v string) (string, error) { return v, nil }
func asFloat(v string) (float64, error) { return strconv.ParseFloat(v, 64) }
