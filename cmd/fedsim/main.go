// Command fedsim regenerates every experimental artifact of the FedClust
// reproduction from the command line. The subcommand table (commands.go)
// is the one source of dispatch, of `fedsim help` and of the listing
// below; TestRegistry fails when they disagree.
//
//	usage: fedsim <subcommand> [flags]
//
//	  table1                Table I: test accuracy under Non-IID Dir(0.1)
//	  fig1                  Fig. 1: distance matrices from different layer weights
//	  comm                  C1: communication cost of cluster formation
//	  newcomer              F2: dynamic newcomer incorporation (paper step ⑥)
//	  sweep-alpha           S1: heterogeneity sweep (Dirichlet alpha)
//	  scale                 S2: scalability of one-shot clustering
//	  ablation-layer        A1: which layer's weights cluster best
//	  ablation-linkage      A2: FedClust under each HC linkage
//	  ablation-selector     A3: automatic cluster-count rules
//	  ablation-compression  A4: accuracy-vs-measured-bytes frontier of the uplink codecs
//	  stragglers            H1: system heterogeneity — stragglers, dropouts, staleness
//	  hostile               R1: hostile world — byzantine clients, churn, drift
//	  serve                 run federated rounds as a network coordinator
//	  join                  serve local training as a node of a coordinator
//	  status                query a running coordinator's control plane
//	  tail                  render a JSONL round journal (optionally following it)
//
//	Each subcommand accepts only the flags it reads; `fedsim <subcommand> -h` lists them.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"fedclust/internal/experiments"
	"fedclust/internal/fl"
	"fedclust/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// help renders the subcommand table.
func help() string {
	var b strings.Builder
	b.WriteString("usage: fedsim <subcommand> [flags]\n\n")
	for _, c := range commands {
		title := c.title
		if c.code != "" {
			title = c.code + ": " + title
		}
		fmt.Fprintf(&b, "  %-21s %s\n", c.name, title)
	}
	b.WriteString("\nEach subcommand accepts only the flags it reads; `fedsim <subcommand> -h` lists them.\n")
	return b.String()
}

// run is fedsim's entry point with the process edges (arguments, output
// streams, exit status) passed in. Nothing outside the process — journal
// file, GOMAXPROCS — is touched before the subcommand and all its flags
// have been accepted. A subcommand's failure comes back as an error,
// printed once as "fedsim: …" with exit status 1.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 || args[0] == "-h" || args[0] == "--help" || args[0] == "help" {
		fmt.Fprint(stderr, help())
		return 2
	}
	var cmd *command
	for i := range commands {
		if commands[i].name == args[0] {
			cmd = &commands[i]
		}
	}
	if cmd == nil {
		fmt.Fprintf(stderr, "fedsim: unknown subcommand %q\n\n%s", args[0], help())
		return 2
	}
	fs := flag.NewFlagSet(cmd.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var s shared
	j := cmd.bind(fs, &s)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := s.check()
	if err == nil && j.check != nil {
		err = j.check()
	}
	if err != nil {
		fmt.Fprintf(stderr, "fedsim: %v\n", err)
		return 2
	}
	if s.workers > 0 {
		// Caps both the client executor width (Env.WorkerCount) and the
		// tensor kernels' row-block width — everything runs on the shared
		// work-sharing pool in internal/sched.
		runtime.GOMAXPROCS(s.workers)
	}
	start := time.Now()
	if cmd.code != "" {
		fmt.Fprintf(stdout, "== %s: %s ==\n", cmd.code, cmd.title)
	}
	if err := j.run(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "fedsim: %v\n", err)
		return 1
	}
	if !cmd.query {
		fmt.Fprintf(stdout, "\ncompleted in %v\n", time.Since(start).Round(time.Second))
	}
	return 0
}

// check validates the shared flags (0 stays each one's "use the default"
// sentinel) and parses the two that name something.
func (s *shared) check() (err error) {
	rounds := 0
	if s.rounds != nil {
		rounds = *s.rounds
	}
	if err = checkNumericFlags(s.workers, rounds, s.timeout, s.ckptEvery, s.rejoin); err != nil {
		return err
	}
	if s.dtypeName != "" {
		if s.dtype, err = fl.ParseDType(s.dtypeName); err != nil {
			return err
		}
	}
	if s.codecName != "" {
		if s.codec, err = wire.ParseCodec(s.codecName); err != nil {
			return err
		}
	}
	if s.topkFrac < 0 || s.topkFrac > 1 || math.IsNaN(s.topkFrac) {
		return fmt.Errorf("invalid -topk-frac %v: must be in (0,1] (0 selects the default)", s.topkFrac)
	}
	return nil
}

// checkNumericFlags rejects out-of-range numeric flags with clear errors
// (0 remains each flag's "default" sentinel throughout): negative values
// fail loudly instead of meaning something by accident (-workers -4 would
// leave GOMAXPROCS untouched; -timeout -1 would disable the deadline).
func checkNumericFlags(workers, rounds int, timeoutSec float64, ckptEvery int, rejoinSec float64) error {
	if workers < 0 {
		return fmt.Errorf("invalid -workers %d: must be positive (or 0 for all cores)", workers)
	}
	if rounds < 0 {
		return fmt.Errorf("invalid -rounds %d: must be positive (or 0 for the experiment default)", rounds)
	}
	if timeoutSec < 0 || math.IsNaN(timeoutSec) || math.IsInf(timeoutSec, 0) {
		return fmt.Errorf("invalid -timeout %v: must be non-negative seconds (0 disables the deadline)", timeoutSec)
	}
	if ckptEvery < 0 {
		return fmt.Errorf("invalid -checkpoint-every %d: must be positive rounds (or 0 for on-demand only)", ckptEvery)
	}
	if rejoinSec < 0 || math.IsNaN(rejoinSec) || math.IsInf(rejoinSec, 0) {
		return fmt.Errorf("invalid -rejoin %v: must be non-negative seconds (0 exits on disconnect)", rejoinSec)
	}
	return nil
}

// experiment is the one driver every in-process experiment runs through:
// journal → progress → report → checks → optional CSV (run has printed
// the banner).
func experiment[O interface{ Check() error }, R interface{ Report() experiments.Report }](
	s *shared, o *O, c *experiments.Common, run func(O) R) job {
	return job{
		check: func() error { return (*o).Check() },
		run: func(stdout, stderr io.Writer) error {
			c.Progress, c.DType, c.Codec, c.TopKFrac = stdout, s.dtype, s.codec, s.topkFrac
			if s.journal != "" {
				journal, err := openJournal(s.journal, 0)
				if err != nil {
					return err
				}
				c.Observer = journal
				defer func() {
					if err := journal.Err(); err != nil {
						fmt.Fprintf(stderr, "fedsim: journal write failed: %v\n", err)
					}
					journal.Close() //nolint:errcheck
				}()
			}
			rep := run(*o).Report()
			fmt.Fprintln(stdout)
			rep.Render(stdout)
			if s.csv != "" {
				if err := writeCSV(s.csv, rep); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "wrote %s\n", s.csv)
			}
			return nil
		},
	}
}

func writeCSV(path string, rep experiments.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.CSV.WriteCSV(f); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	return f.Close()
}
