// Command fedsim regenerates every experimental artifact of the FedClust
// reproduction from the command line.
//
// Usage:
//
//	fedsim <experiment> [flags]
//
// Experiments:
//
//	table1           Table I — accuracy of 6 methods × 3 datasets, Dir(0.1)
//	fig1             Fig. 1 — per-layer weight-distance matrices (VGG-16)
//	comm             C1 — communication cost of cluster formation
//	newcomer         F2 — dynamic newcomer incorporation (paper step ⑥)
//	sweep-alpha      S1 — accuracy across Dirichlet heterogeneity levels
//	scale            S2 — clustering/round time vs client count
//	ablation-layer   A1 — cluster recovery per weight layer
//	ablation-linkage A2 — FedClust under each HC linkage
//	stragglers       H1 — system heterogeneity: stragglers, dropouts, staleness
//	hostile          R1 — byzantine clients, churn, drift × robust aggregation
//	serve            networked federation: run rounds as the coordinator
//	join             networked federation: serve local training as a node
//	status           query a running coordinator's HTTP control plane
//	tail             render a JSONL round journal (optionally following it)
//
// Common flags:
//
//	-quick        reduced workload (fewer clients/samples/rounds)
//	-seed N       root seed (default 1)
//	-seeds a,b,c  seed list for table1 (default 1,2,3)
//	-csv path     also write results as CSV
//	-codec c      uplink codec: float64, float32, quant8, topk, topk-quant8
//	-topk-frac F  sparse codecs' kept coordinate fraction (0 = 1% default)
//	-journal path append a JSONL round journal (one event per round) to path
//
// Scenario flags (stragglers):
//
//	-scenario         toggle the heterogeneity layer (default true)
//	-deadline D       virtual round deadline in nominal local-pass units
//	-straggler-frac F fraction of clients drawn into the slow cohort
//	-dropouts a,b,c   per-round dropout rates swept
//
// Hostile-world flags (hostile):
//
//	-attack K          byzantine behavior: none, label-noise, sign-flip, garbage, mixed
//	-byzantine-frac l  comma-separated attacker-cohort fractions swept
//	-churn F           fraction of clients that join or leave mid-training
//	-drift-frac F      fraction of clients whose distribution drifts
//	-drift-round N     round at which drifted clients switch distribution
//	-aggregator l      comma-separated server strategies: mean, trimmed, median, krum
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fedclust/internal/experiments"
	"fedclust/internal/fl"
	"fedclust/internal/obs"
	"fedclust/internal/scenario"
	"fedclust/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// stdout and stderr are where the in-process experiments print; run
// points them at its arguments so tests can capture a whole invocation.
var stdout, stderr io.Writer = os.Stdout, os.Stderr

// exitCode is panicked by the experiment wrappers where they used to
// call os.Exit; run recovers it into its return value.
type exitCode int

// run is fedsim's entry point with the process edges (arguments, output
// streams, exit status) passed in. serve/join/status/tail still print to
// the process's own streams and exit through fatalf.
func run(args []string, out, errOut io.Writer) (code int) {
	stdout, stderr = out, errOut
	experiments.DefaultObserver = nil
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(exitCode)
			if !ok {
				panic(r)
			}
			code = int(c)
		}
	}()
	if len(args) < 1 || args[0] == "-h" || args[0] == "--help" || args[0] == "help" {
		usage()
		return 2
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "reduced workload for fast runs")
	seed := fs.Uint64("seed", 1, "root seed")
	seedList := fs.String("seeds", "1,2,3", "comma-separated seeds (table1)")
	csvPath := fs.String("csv", "", "also write results to this CSV file")
	datasets := fs.String("datasets", "cifar10,fmnist,svhn", "datasets (table1)")
	methodsFlag := fs.String("methods", strings.Join(experiments.MethodNames, ","), "methods (table1)")
	rounds := fs.Int("rounds", 0, "override training rounds where applicable")
	workers := fs.Int("workers", 0, "cap simulator parallelism (sets GOMAXPROCS; default all cores)")
	dtypeFlag := fs.String("dtype", "float64", "numeric compute path: float64 (golden reference) or float32 (SIMD kernels, ~2x+ local training)")
	scenarioOn := fs.Bool("scenario", true, "enable the system-heterogeneity scenario layer (stragglers)")
	deadline := fs.Float64("deadline", 1, "virtual round deadline in nominal local-pass units (stragglers)")
	stragglerFrac := fs.Float64("straggler-frac", 0.3, "fraction of clients in the slow cohort (stragglers)")
	dropouts := fs.String("dropouts", "0,0.1,0.3,0.5", "comma-separated per-round dropout rates (stragglers)")
	attackFlag := fs.String("attack", "sign-flip", "byzantine behavior: none, label-noise, sign-flip, garbage, mixed (hostile)")
	alphaFlag := fs.Float64("alpha", 0, "Dirichlet concentration override for the hostile population, 0 = experiment default Dir(1) (hostile)")
	byzFracs := fs.String("byzantine-frac", "0,0.1,0.2,0.3", "comma-separated attacker-cohort fractions swept (hostile)")
	churnFrac := fs.Float64("churn", 0, "fraction of clients that join or leave mid-training (hostile)")
	driftFrac := fs.Float64("drift-frac", 0, "fraction of clients whose distribution drifts (hostile)")
	driftRound := fs.Int("drift-round", 0, "round at which drifted clients switch distribution (hostile)")
	aggregators := fs.String("aggregator", "mean,trimmed,median,multi-krum", "comma-separated server aggregation strategies swept (hostile)")
	addr := fs.String("addr", ":7171", "coordinator address (serve: listen; join: dial)")
	nodesN := fs.Int("nodes", 1, "node processes to wait for before training (serve)")
	codec := fs.String("codec", "float64", "uplink parameter codec: float64, float32, quant8, topk, topk-quant8")
	topkFrac := fs.Float64("topk-frac", 0, "sparse codecs' kept coordinate fraction in (0,1] (0 = the 1% default)")
	timeoutSec := fs.Float64("timeout", 60, "per-request transport deadline in seconds, 0 = none (serve)")
	nodeName := fs.String("name", "", "node name announced to the coordinator (join; default host-pid)")
	ckptPath := fs.String("checkpoint", "", "write checkpoints to this file (serve)")
	ckptEvery := fs.Int("checkpoint-every", 0, "emit a checkpoint every N completed rounds (serve; 0 = only on demand)")
	resumePath := fs.String("resume", "", "resume the run from this checkpoint file (serve)")
	controlAddr := fs.String("control", "", "HTTP control-plane listen address, e.g. :7172 (serve; empty = disabled)")
	rejoinSec := fs.Float64("rejoin", 0, "seconds to keep re-dialing a lost coordinator (join; 0 = exit on disconnect)")
	triggerCkpt := fs.Bool("trigger-checkpoint", false, "also arm an on-demand checkpoint (status)")
	journalPath := fs.String("journal", "", "append a JSONL round journal to this file (runs); journal to read (tail)")
	tailLast := fs.Int("last", 10, "round events to show (tail; 0 = all)")
	tailFollow := fs.Bool("follow", false, "keep watching the journal for new events (tail)")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Reject nonsense numeric flags up front, in fl.LocalConfig.Check
	// style: 0 stays each flag's "use the default" sentinel, but negative
	// values were previously accepted silently (-workers -4 left
	// GOMAXPROCS untouched; -timeout -1 disabled the deadline) and now
	// fail loudly instead of meaning something by accident.
	if err := checkNumericFlags(*workers, *rounds, *timeoutSec, *ckptEvery, *rejoinSec); err != nil {
		fmt.Fprintf(stderr, "fedsim: %v\n", err)
		panic(exitCode(2))
	}
	if *workers > 0 {
		// Caps both the client executor width (Env.WorkerCount) and the
		// tensor kernels' row-block width — everything runs on the shared
		// work-sharing pool in internal/sched.
		runtime.GOMAXPROCS(*workers)
	}
	dtype, err := fl.ParseDType(*dtypeFlag)
	if err != nil {
		fmt.Fprintf(stderr, "fedsim: %v\n", err)
		panic(exitCode(2))
	}
	// One knob for every environment the process builds: in-process
	// experiments read it from BuildEnv; serve ships it in the spec so
	// joining nodes run the same path.
	experiments.DefaultDType = dtype
	// Same pattern for the uplink codec: -codec topk -topk-frac 0.01 runs
	// any in-process experiment sparsified, and serve ships the selection
	// in the spec so nodes hold matching error-feedback state.
	wcodec, err := wire.ParseCodec(*codec)
	if err != nil {
		fmt.Fprintf(stderr, "fedsim: %v\n", err)
		panic(exitCode(2))
	}
	if *topkFrac < 0 || *topkFrac > 1 || math.IsNaN(*topkFrac) {
		fmt.Fprintf(stderr, "fedsim: invalid -topk-frac %v: must be in (0,1] (0 selects the default)\n", *topkFrac)
		panic(exitCode(2))
	}
	experiments.DefaultCodec = wcodec
	experiments.DefaultTopKFrac = *topkFrac
	if *tailLast < 0 {
		fmt.Fprintf(stderr, "fedsim: invalid -last %d: must be non-negative (0 shows every round)\n", *tailLast)
		panic(exitCode(2))
	}
	// -journal on an in-process experiment attaches a round journal to
	// every environment the process builds (experiments.DefaultObserver,
	// the DefaultDType pattern). serve wires its own journal so the event
	// classification knows the run's local-epoch setting; tail reads one.
	var journal *obs.Journal
	switch cmd {
	case "serve", "join", "status", "tail":
	default:
		if *journalPath != "" {
			journal = openJournal(*journalPath, 0)
			experiments.DefaultObserver = journal
		}
	}

	start := time.Now()
	switch cmd {
	case "table1":
		runTable1(*quick, parseSeeds(*seedList), splitList(*datasets), splitList(*methodsFlag), *csvPath)
	case "fig1":
		runFig1(*quick, *seed)
	case "comm":
		runComm(*quick, *seed, *rounds)
	case "newcomer":
		runNewcomer(*quick, *seed)
	case "sweep-alpha":
		runAlphaSweep(*quick, *seed)
	case "scale":
		runScale(*seed)
	case "ablation-layer":
		runLayerAblation(*quick, *seed)
	case "ablation-linkage":
		runLinkageAblation(*quick, *seed)
	case "ablation-selector":
		runSelectorAblation(*quick, *seed)
	case "ablation-compression":
		runCompressionAblation(*quick, *seed, *topkFrac, *csvPath)
	case "serve":
		// A bare `fedsim serve` runs FedAvg + FedClust; an explicit
		// -methods narrows or widens the distributed set.
		runServe(*quick, *seed, *rounds, *addr, *nodesN, *codec, *topkFrac, *timeoutSec,
			explicitMethods(fs, *methodsFlag), serveControl{
				CheckpointPath:  *ckptPath,
				CheckpointEvery: *ckptEvery,
				ResumePath:      *resumePath,
				ControlAddr:     *controlAddr,
				JournalPath:     *journalPath,
			})
	case "join":
		runJoin(*addr, *nodeName, *rejoinSec)
	case "status":
		// A status query is not a run: print the snapshot and nothing
		// else, so the JSON stays pipeable (fedsim status | jq).
		runStatus(*addr, *triggerCkpt)
		return 0
	case "tail":
		// Like status, tail is a query, not a run: render and exit so the
		// output stays pipeable.
		runTail(*journalPath, *tailLast, *tailFollow)
		return 0
	case "stragglers":
		// The stragglers default method set adds the staleness-aware
		// aggregators; an explicit -methods overrides it.
		runStragglers(*quick, *seed, *scenarioOn, *deadline, *stragglerFrac,
			parseFloats(*dropouts), explicitMethods(fs, *methodsFlag), *csvPath)
	case "hostile":
		runHostile(*quick, *seed, *attackFlag, *alphaFlag, parseFloats(*byzFracs), *churnFrac,
			*driftFrac, *driftRound, splitList(*aggregators), explicitMethods(fs, *methodsFlag), *csvPath)
	default:
		fmt.Fprintf(stderr, "fedsim: unknown experiment %q\n\n", cmd)
		usage()
		panic(exitCode(2))
	}
	if journal != nil {
		if err := journal.Err(); err != nil {
			fmt.Fprintf(stderr, "fedsim: journal write failed: %v\n", err)
		}
		journal.Close() //nolint:errcheck
	}
	fmt.Fprintf(stdout, "\ncompleted in %v\n", time.Since(start).Round(time.Second))
	return 0
}

// checkNumericFlags rejects out-of-range numeric flags with clear errors
// (0 remains each flag's "default" sentinel throughout).
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

func usage() {
	fmt.Fprintln(stderr, `fedsim — FedClust reproduction harness

usage: fedsim <experiment> [flags]

experiments:
  table1           Table I: accuracy, 6 methods x 3 datasets, Dir(0.1)
  fig1             Fig. 1: per-layer weight-distance matrices (VGG-16)
  comm             C1: communication cost of cluster formation
  newcomer         F2: dynamic newcomer incorporation
  sweep-alpha      S1: accuracy across heterogeneity levels
  scale            S2: clustering/round time vs client count
  ablation-layer   A1: cluster recovery per weight layer
  ablation-linkage A2: FedClust under each HC linkage
  ablation-selector A3: automatic cluster-count rules
  ablation-compression A4: accuracy vs measured bytes per uplink codec
  stragglers       H1: system heterogeneity (stragglers, dropouts, staleness)
  hostile          R1: byzantine clients, churn, drift x robust aggregation
  serve            run federated rounds as a network coordinator
  join             serve local training as a node of a coordinator
  status           query a running coordinator's control plane
  tail             render a JSONL round journal (optionally following it)

flags: -quick, -seed N, -seeds a,b,c, -csv path, -datasets ..., -methods ..., -rounds N, -workers N, -dtype float64|float32
codec flags: -codec float64|float32|quant8|topk|topk-quant8, -topk-frac F (sparse kept fraction, 0 = 1% default)
scenario flags (stragglers): -scenario, -deadline D, -straggler-frac F, -dropouts a,b,c
hostile flags: -attack k, -byzantine-frac a,b,c, -churn F, -drift-frac F, -drift-round N, -aggregator a,b,c
transport flags (serve/join): -addr host:port, -nodes N, -codec c, -timeout s, -name id, -rejoin s
checkpoint flags (serve): -checkpoint path, -checkpoint-every N, -resume path, -control addr
status flags: -addr host:port (the -control address), -trigger-checkpoint
telemetry flags: -journal path (runs: append JSONL round events; tail: the journal to read), -last N, -follow`)
}

// explicitMethods returns the parsed -methods list only when the flag
// was set on the command line, so subcommands with their own default
// method sets can tell "defaulted" from "explicitly chosen".
func explicitMethods(fs *flag.FlagSet, methodsFlag string) []string {
	var out []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "methods" {
			out = splitList(methodsFlag)
		}
	})
	return out
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			fmt.Fprintf(stderr, "fedsim: bad rate %q\n", part)
			panic(exitCode(2))
		}
		out = append(out, v)
	}
	return out
}

func runStragglers(quick bool, seed uint64, scenarioOn bool, deadline, stragglerFrac float64,
	dropoutRates []float64, methodList []string, csvPath string) {
	fmt.Fprintln(stdout, "== H1: system heterogeneity — stragglers, dropouts, staleness ==")
	// Validate scenario settings up front: scenario.New panics on bad
	// config, and a mid-sweep stack trace after minutes of training is a
	// poor way to report a typo.
	for _, r := range dropoutRates {
		if r < 0 || r >= 1 {
			fmt.Fprintf(stderr, "fedsim: dropout rate %v out of [0,1)\n", r)
			panic(exitCode(2))
		}
	}
	if stragglerFrac < 0 || stragglerFrac > 1 {
		fmt.Fprintf(stderr, "fedsim: straggler fraction %v out of [0,1]\n", stragglerFrac)
		panic(exitCode(2))
	}
	if deadline <= 0 {
		fmt.Fprintf(stderr, "fedsim: non-positive deadline %v\n", deadline)
		panic(exitCode(2))
	}
	opts := experiments.DefaultStragglerOptions()
	opts.Quick = quick
	opts.Seed = seed
	opts.Scenario = scenarioOn
	opts.Deadline = deadline
	opts.StragglerFrac = stragglerFrac
	if len(dropoutRates) > 0 {
		opts.DropoutRates = dropoutRates
	}
	if len(methodList) > 0 {
		opts.Methods = methodList
	}
	opts.Progress = stdout
	res := experiments.RunStragglers(opts)
	fmt.Fprintln(stdout)
	res.Render(stdout)
	fmt.Fprintln(stdout)
	for _, c := range res.ShapeChecks() {
		fmt.Fprintln(stdout, c)
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			fmt.Fprintf(stderr, "fedsim: %v\n", err)
			panic(exitCode(1))
		}
		defer f.Close()
		header, rows := res.CSV()
		if err := experiments.WriteCSV(f, header, rows); err != nil {
			fmt.Fprintf(stderr, "fedsim: %v\n", err)
			panic(exitCode(1))
		}
		fmt.Fprintf(stdout, "wrote %s\n", csvPath)
	}
}

func runHostile(quick bool, seed uint64, attackName string, alpha float64, byzFracs []float64,
	churn, driftFrac float64, driftRound int, aggList, methodList []string, csvPath string) {
	fmt.Fprintln(stdout, "== R1: hostile world — byzantine clients, churn, drift ==")
	attack, err := scenario.ParseAttack(attackName)
	if err != nil {
		fmt.Fprintf(stderr, "fedsim: %v\n", err)
		panic(exitCode(2))
	}
	if alpha < 0 {
		fmt.Fprintf(stderr, "fedsim: negative Dirichlet concentration %v\n", alpha)
		panic(exitCode(2))
	}
	opts := experiments.DefaultHostileOptions()
	opts.Quick = quick
	opts.Seed = seed
	opts.Attack = attackName
	if alpha > 0 {
		opts.Alpha = alpha
	}
	if len(byzFracs) > 0 {
		opts.ByzantineFracs = byzFracs
	}
	opts.ChurnFrac, opts.DriftFrac, opts.DriftRound = churn, driftFrac, driftRound
	if len(aggList) > 0 {
		opts.Aggregators = aggList
	}
	if len(methodList) > 0 {
		opts.Methods = methodList
	}
	// Validate every swept scenario configuration through
	// scenario.Config.Check before training starts (checkNumericFlags
	// style): a typo'd fraction fails in milliseconds with a clear error,
	// not as a panic buried mid-sweep. The churn horizon mirrors what
	// RunHostile will use — the workload's round count.
	horizon := experiments.PaperWorkload(opts.Dataset).Rounds
	if quick {
		horizon = experiments.QuickWorkload(opts.Dataset).Rounds
	}
	for _, f := range opts.ByzantineFracs {
		cfg := scenario.Config{
			ByzantineFrac: f, Attack: attack,
			ChurnFrac: churn, ChurnHorizon: horizon,
			DriftFrac: driftFrac, DriftRound: driftRound,
		}
		if err := cfg.Check(); err != nil {
			fmt.Fprintf(stderr, "fedsim: %v\n", err)
			panic(exitCode(2))
		}
		for _, a := range opts.Aggregators {
			if _, err := fl.NewAggregator(a, f); err != nil {
				fmt.Fprintf(stderr, "fedsim: %v\n", err)
				panic(exitCode(2))
			}
		}
	}
	opts.Progress = stdout
	res := experiments.RunHostile(opts)
	fmt.Fprintln(stdout)
	res.Render(stdout)
	fmt.Fprintln(stdout)
	for _, c := range res.ShapeChecks() {
		fmt.Fprintln(stdout, c)
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			fmt.Fprintf(stderr, "fedsim: %v\n", err)
			panic(exitCode(1))
		}
		defer f.Close()
		header, rows := res.CSV()
		if err := experiments.WriteCSV(f, header, rows); err != nil {
			fmt.Fprintf(stderr, "fedsim: %v\n", err)
			panic(exitCode(1))
		}
		fmt.Fprintf(stdout, "wrote %s\n", csvPath)
	}
}

func parseSeeds(s string) []uint64 {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "fedsim: bad seed %q\n", part)
			panic(exitCode(2))
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		out = []uint64{1}
	}
	return out
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func runTable1(quick bool, seeds []uint64, datasets, methodNames []string, csvPath string) {
	fmt.Fprintln(stdout, "== Table I: test accuracy under Non-IID Dir(0.1) ==")
	opts := experiments.Table1Options{
		Datasets: datasets,
		Methods:  methodNames,
		Seeds:    seeds,
		Quick:    quick,
		Progress: stdout,
	}
	res := experiments.RunTable1(opts)
	fmt.Fprintln(stdout)
	res.Render(stdout)
	fmt.Fprintln(stdout)
	for _, c := range res.ShapeChecks() {
		fmt.Fprintln(stdout, c)
	}
	if csvPath != "" {
		writeTable1CSV(res, csvPath)
	}
}

func writeTable1CSV(res *experiments.Table1Result, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "fedsim: %v\n", err)
		panic(exitCode(1))
	}
	defer f.Close()
	header := []string{"method", "dataset", "mean_acc_pct", "std_acc_pct", "paper_mean_pct"}
	var rows [][]string
	for _, m := range res.Methods {
		for _, ds := range res.Datasets {
			c := res.Cell(m, ds)
			paper := ""
			if p, ok := experiments.PaperTable1[m][ds]; ok {
				paper = fmt.Sprintf("%.2f", p[0])
			}
			rows = append(rows, []string{m, ds,
				fmt.Sprintf("%.2f", c.Mean()), fmt.Sprintf("%.2f", c.Std()), paper})
		}
	}
	if err := experiments.WriteCSV(f, header, rows); err != nil {
		fmt.Fprintf(stderr, "fedsim: %v\n", err)
		panic(exitCode(1))
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
}

func runFig1(quick bool, seed uint64) {
	fmt.Fprintln(stdout, "== Fig. 1: distance matrices from different layer weights ==")
	opts := experiments.DefaultFig1Options()
	opts.Seed = seed
	if quick {
		opts.ClientsPerGroup = 3
		opts.TrainPerClass = 40
		opts.Epochs = 2
	}
	res := experiments.RunFig1(opts)
	res.Render(stdout)
	fmt.Fprintln(stdout)
	for _, c := range res.ShapeChecks() {
		fmt.Fprintln(stdout, c)
	}
}

func runComm(quick bool, seed uint64, rounds int) {
	fmt.Fprintln(stdout, "== C1: communication cost of cluster formation ==")
	opts := experiments.DefaultCommOptions()
	opts.Quick = quick
	opts.Seed = seed
	if rounds > 0 {
		opts.Rounds = rounds
	}
	opts.Progress = stdout
	res := experiments.RunComm(opts)
	fmt.Fprintln(stdout)
	res.Render(stdout)
	fmt.Fprintln(stdout)
	for _, c := range res.ShapeChecks() {
		fmt.Fprintln(stdout, c)
	}
}

func runNewcomer(quick bool, seed uint64) {
	fmt.Fprintln(stdout, "== F2: dynamic newcomer incorporation (paper step ⑥) ==")
	opts := experiments.DefaultNewcomerOptions()
	opts.Quick = quick
	opts.Seed = seed
	opts.Progress = stdout
	res := experiments.RunNewcomer(opts)
	fmt.Fprintln(stdout)
	res.Render(stdout)
	for _, c := range res.ShapeChecks() {
		fmt.Fprintln(stdout, c)
	}
}

func runAlphaSweep(quick bool, seed uint64) {
	fmt.Fprintln(stdout, "== S1: heterogeneity sweep (Dirichlet alpha) ==")
	opts := experiments.DefaultAlphaSweepOptions()
	opts.Quick = quick
	opts.Seed = seed
	opts.Progress = stdout
	res := experiments.RunAlphaSweep(opts)
	fmt.Fprintln(stdout)
	res.Render(stdout)
	for _, c := range res.ShapeChecks() {
		fmt.Fprintln(stdout, c)
	}
}

func runScale(seed uint64) {
	fmt.Fprintln(stdout, "== S2: scalability of one-shot clustering ==")
	opts := experiments.DefaultScaleOptions()
	opts.Seed = seed
	opts.Progress = stdout
	res := experiments.RunScale(opts)
	fmt.Fprintln(stdout)
	res.Render(stdout)
}

func runLayerAblation(quick bool, seed uint64) {
	fmt.Fprintln(stdout, "== A1: which layer's weights cluster best ==")
	opts := experiments.DefaultLayerAblationOptions()
	opts.Quick = quick
	opts.Seed = seed
	opts.Progress = stdout
	res := experiments.RunLayerAblation(opts)
	fmt.Fprintln(stdout)
	res.Render(stdout)
	for _, c := range res.ShapeChecks() {
		fmt.Fprintln(stdout, c)
	}
}

func runLinkageAblation(quick bool, seed uint64) {
	fmt.Fprintln(stdout, "== A2: FedClust under each HC linkage ==")
	opts := experiments.DefaultLinkageAblationOptions()
	opts.Quick = quick
	opts.Seed = seed
	opts.Progress = stdout
	res := experiments.RunLinkageAblation(opts)
	fmt.Fprintln(stdout)
	res.Render(stdout)
}

func runSelectorAblation(quick bool, seed uint64) {
	fmt.Fprintln(stdout, "== A3: automatic cluster-count rules ==")
	opts := experiments.DefaultSelectorAblationOptions()
	opts.Quick = quick
	opts.Seed = seed
	opts.Progress = stdout
	res := experiments.RunSelectorAblation(opts)
	fmt.Fprintln(stdout)
	res.Render(stdout)
	for _, c := range res.ShapeChecks() {
		fmt.Fprintln(stdout, c)
	}
}

func runCompressionAblation(quick bool, seed uint64, topkFrac float64, csvPath string) {
	fmt.Fprintln(stdout, "== A4: accuracy-vs-measured-bytes frontier of the uplink codecs ==")
	opts := experiments.DefaultCompressionOptions()
	opts.Quick = quick
	opts.Seed = seed
	if topkFrac > 0 {
		opts.TopKFrac = topkFrac
	}
	opts.Progress = stdout
	res := experiments.RunCompression(opts)
	fmt.Fprintln(stdout)
	res.Render(stdout)
	fmt.Fprintln(stdout)
	for _, c := range res.ShapeChecks() {
		fmt.Fprintln(stdout, c)
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			fmt.Fprintf(stderr, "fedsim: %v\n", err)
			panic(exitCode(1))
		}
		defer f.Close()
		header, rows := res.CSV()
		if err := experiments.WriteCSV(f, header, rows); err != nil {
			fmt.Fprintf(stderr, "fedsim: %v\n", err)
			panic(exitCode(1))
		}
		fmt.Fprintf(stdout, "wrote %s\n", csvPath)
	}
}
