package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"fedclust/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// invocation is one pinned fedsim command line. Its golden file holds the
// exit status, both output streams and, with csv set, the file -csv wrote.
type invocation struct {
	name string
	args []string
	// direct replaces run(args, …) for the two experiments whose CLI
	// defaults are too slow to pin and that have no narrowing flag: it
	// drives the same code the subcommand does, on narrowed options and
	// the shared flags s.
	direct func(stdout *bytes.Buffer, s *shared)
	heavy  bool // trains models: skipped under -short
	csv    bool // write the CSV to <tmp>/out.csv ("-csv") and pin the file too
	mask   func(string) string
}

var (
	wallClock = regexp.MustCompile(`completed in \S+`)
	duration  = regexp.MustCompile(`\b\d+(\.\d+)?(ns|µs|ms|s)\b`)
	spaces    = regexp.MustCompile(` {2,}`)
	rule      = regexp.MustCompile(`(?m)^-+$`)
)

// maskScale blanks scale's two duration columns, except a zero one: a
// timing that was not recorded prints "0s" and fails the golden. Their
// widths move the column padding and the rule under the header, so those
// are collapsed.
func maskScale(s string) string {
	s = duration.ReplaceAllStringFunc(s, func(d string) string {
		if d == "0s" {
			return d
		}
		return "<T>"
	})
	s = spaces.ReplaceAllString(s, " ")
	return rule.ReplaceAllString(s, "---")
}

var invocations = []invocation{
	// Always on: dispatch, help and every up-front rejection.
	{name: "help", args: []string{"help"}},
	{name: "no-args", args: nil},
	{name: "unknown-subcommand", args: []string{"run", "-quick", "-journal", "$TMP/j.jsonl"}},
	{name: "undefined-flag", args: []string{"comm", "-bogus"}},
	// A flag another subcommand reads is as undefined here as a typo.
	{name: "unread-flag-csv", args: []string{"comm", "-quick", "-rounds", "2", "-csv", "$TMP/x.csv"}},
	{name: "unread-flag-attack", args: []string{"table1", "-attack", "garbage", "-nodes", "3"}},
	{name: "unknown-method", args: []string{"table1", "-methods", "FedAvg,FedNope"}},
	{name: "reject-workers", args: []string{"comm", "-workers", "-1"}},
	{name: "reject-rounds", args: []string{"comm", "-rounds", "-1"}},
	{name: "reject-timeout", args: []string{"serve", "-timeout", "-1"}},
	{name: "reject-checkpoint-every", args: []string{"serve", "-checkpoint-every", "-1"}},
	{name: "reject-rejoin", args: []string{"join", "-rejoin", "-1"}},
	{name: "reject-dtype", args: []string{"comm", "-dtype", "float16"}},
	{name: "reject-codec", args: []string{"comm", "-codec", "zip"}},
	{name: "reject-topk-frac", args: []string{"comm", "-topk-frac", "2"}},
	{name: "reject-last", args: []string{"tail", "-last", "-1"}},
	{name: "reject-seeds", args: []string{"table1", "-seeds", "1,x"}},
	{name: "reject-dropouts-syntax", args: []string{"stragglers", "-dropouts", "0,abc"}},
	{name: "reject-dropouts-range", args: []string{"stragglers", "-dropouts", "0,1.5"}},
	{name: "reject-straggler-frac", args: []string{"stragglers", "-straggler-frac", "2"}},
	{name: "reject-deadline", args: []string{"stragglers", "-deadline", "0"}},
	{name: "reject-attack", args: []string{"hostile", "-attack", "bribery"}},
	{name: "reject-alpha", args: []string{"hostile", "-alpha", "-1"}},
	{name: "reject-byzantine-frac", args: []string{"hostile", "-byzantine-frac", "0,0.7"}},
	{name: "reject-churn", args: []string{"hostile", "-churn", "2"}},
	{name: "reject-drift", args: []string{"hostile", "-drift-frac", "0.2", "-drift-round", "-3"}},
	{name: "reject-aggregator", args: []string{"hostile", "-aggregator", "mean,mode"}},

	// Failures after dispatch: exit 1 with one "fedsim: …" line.
	{name: "tail-missing", args: []string{"tail", "-journal", "$TMP/missing.jsonl"}},
	{name: "journal-missing-dir", args: []string{"comm", "-quick", "-rounds", "2", "-journal", "$TMP/no-such-dir/j.jsonl"}},

	// tail renders a journal a three-round run wrote.
	{name: "tail", args: []string{"tail", "-journal", "testdata/three-rounds.jsonl"}},

	// Every experiment subcommand at a narrowed configuration.
	{name: "table1", heavy: true, csv: true,
		args: []string{"table1", "-quick", "-seeds", "1", "-datasets", "fmnist", "-methods", "FedAvg,FedClust"}},
	{name: "fig1", heavy: true, args: []string{"fig1", "-quick"}},
	{name: "comm", heavy: true, args: []string{"comm", "-quick", "-rounds", "2"}},
	{name: "newcomer", heavy: true, args: []string{"newcomer", "-quick"}},
	{name: "newcomer-float32", heavy: true, args: []string{"newcomer", "-quick", "-dtype", "float32"}},
	{name: "sweep-alpha", heavy: true, direct: directAlphaSweep},
	{name: "scale", heavy: true, args: []string{"scale"}, mask: maskScale},
	{name: "ablation-layer", heavy: true, args: []string{"ablation-layer", "-quick"}},
	{name: "ablation-layer-float32", heavy: true, args: []string{"ablation-layer", "-quick", "-dtype", "float32"}},
	{name: "ablation-linkage", heavy: true, args: []string{"ablation-linkage", "-quick"}},
	{name: "ablation-selector", heavy: true, args: []string{"ablation-selector", "-quick"}},
	{name: "ablation-compression", heavy: true, csv: true, direct: directCompression},
	{name: "stragglers", heavy: true, csv: true,
		args: []string{"stragglers", "-quick", "-dropouts", "0,0.3", "-methods", "FedAvg,FedAvgStale"}},
	// FedClust still forms its clusters, at round 0, under the scenario.
	{name: "stragglers-fedclust", heavy: true,
		args: []string{"stragglers", "-quick", "-dropouts", "0.3", "-methods", "FedClust"}},
	{name: "stragglers-control", heavy: true,
		args: []string{"stragglers", "-quick", "-scenario=false", "-dropouts", "0,0.3", "-methods", "FedAvg"}},
	{name: "hostile", heavy: true, csv: true,
		args: []string{"hostile", "-quick", "-byzantine-frac", "0,0.2", "-aggregator", "mean,median", "-methods", "FedAvg"}},
}

// direct drives an experiment the way run does, on options the CLI cannot
// narrow to.
func direct(out *bytes.Buffer, name string, j job) {
	for _, c := range commands {
		if c.name == name {
			fmt.Fprintf(out, "== %s: %s ==\n", c.code, c.title)
		}
	}
	j.run(out, out)
}

// directAlphaSweep is `fedsim sweep-alpha -quick` on two alphas (the
// five-alpha default takes 16 s).
func directAlphaSweep(out *bytes.Buffer, s *shared) {
	opts := experiments.DefaultAlphaSweepOptions()
	opts.Quick = true
	opts.Alphas = []float64{0.1, 10}
	direct(out, "sweep-alpha", experiment(s, &opts, &opts.Common, experiments.RunAlphaSweep))
}

// directCompression is `fedsim ablation-compression -quick` on one method
// (the three-method default takes 33 s), every codec and the default 64
// rounds: the run where both frontier checks pass and quant8's ≈ 8×
// uplink cut shows.
func directCompression(out *bytes.Buffer, s *shared) {
	opts := experiments.DefaultCompressionOptions()
	opts.Methods = []string{"FedAvg"}
	direct(out, "ablation-compression", experiment(s, &opts, &opts.Common, experiments.RunCompression))
}

// transcript runs one invocation and renders everything it produced.
func transcript(t *testing.T, inv invocation) string {
	tmp := t.TempDir()
	args := make([]string, len(inv.args))
	for i, a := range inv.args {
		args[i] = strings.ReplaceAll(a, "$TMP", tmp)
	}
	csvPath := filepath.Join(tmp, "out.csv")
	if inv.csv {
		args = append(args, "-csv", csvPath)
	}
	var out, errOut bytes.Buffer
	var b strings.Builder
	if inv.direct != nil {
		fmt.Fprintf(&b, "# in-process: %s\n", inv.name)
		s := new(shared)
		if inv.csv {
			s.csv = csvPath
		}
		inv.direct(&out, s)
	} else {
		shown := strings.Join(inv.args, " ")
		if inv.csv {
			shown += " -csv $TMP/out.csv"
		}
		fmt.Fprintf(&b, "$ fedsim %s\n", shown)
		fmt.Fprintf(&b, "exit %d\n", run(args, &out, &errOut))
	}
	fmt.Fprintf(&b, "--- stdout\n%s--- stderr\n%s", out.String(), errOut.String())
	if inv.csv {
		data, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatalf("-csv wrote no file: %v", err)
		}
		fmt.Fprintf(&b, "--- out.csv\n%s", data)
	}
	s := strings.ReplaceAll(b.String(), tmp, "$TMP")
	s = wallClock.ReplaceAllString(s, "completed in <T>")
	if inv.mask != nil {
		s = inv.mask(s)
	}
	return s
}

// TestGolden pins the CLI byte for byte: testdata/<name>.golden is what
// each invocation printed when the file was recorded (go test -update).
func TestGolden(t *testing.T) {
	for _, inv := range invocations {
		inv := inv
		t.Run(inv.name, func(t *testing.T) {
			if inv.heavy && testing.Short() {
				t.Skip("trains models: skipped in -short mode")
			}
			got := transcript(t, inv)
			path := filepath.Join("testdata", inv.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s (re-record with -update after reviewing):\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}

// TestRegistry holds the subcommand table to its three jobs: dispatch
// (unique names, every exported experiment entry point reachable), `fedsim
// help`, and the package comment.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	flags := map[string]bool{}
	for _, c := range commands {
		if seen[c.name] {
			t.Errorf("subcommand %q is in the table twice", c.name)
		}
		seen[c.name] = true
		if !strings.Contains(help(), "  "+c.name+" ") {
			t.Errorf("`fedsim help` does not list %q", c.name)
		}
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.bind(fs, new(shared))
		fs.VisitAll(func(f *flag.Flag) { flags[f.Name] = true })
	}
	if len(flags) > 40 {
		t.Errorf("%d distinct flags, want at most the 40 the CLI had", len(flags))
	}

	fset := token.NewFileSet()
	table, err := os.ReadFile("commands.go")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := parser.ParseDir(fset, "../../internal/experiments", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range pkgs["experiments"].Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Run") &&
				!strings.Contains(string(table), "experiments."+fn.Name.Name) {
				t.Errorf("experiments.%s is not reachable from the subcommand table", fn.Name.Name)
			}
		}
	}

	main, err := parser.ParseFile(fset, "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	listing := "\t" + strings.ReplaceAll(strings.TrimSpace(help()), "\n", "\n\t")
	listing = strings.ReplaceAll(listing, "\n\t\n", "\n\n")
	if !strings.Contains(main.Doc.Text(), listing) {
		t.Errorf("main.go's package comment does not carry `fedsim help`; it should contain:\n%s", listing)
	}
}

// TestNoSideEffectsBeforeDispatch: an invocation that is going to be
// rejected creates no journal file and leaves GOMAXPROCS alone.
func TestNoSideEffectsBeforeDispatch(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, args := range [][]string{
		{"run", "-quick"},                         // no such subcommand
		{"comm", "-bogus"},                        // no such flag
		{"comm", "-rounds", "-1"},                 // rejected by checkNumericFlags
		{"stragglers", "-deadline", "0"},          // rejected by the options' Check
		{"hostile", "-methods", "FedAvg,FedNope"}, // rejected by the options' Check
	} {
		journal := filepath.Join(t.TempDir(), "j.jsonl")
		args = append(args, "-journal", journal, "-workers", fmt.Sprint(procs+1))
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("fedsim %v: exit %d, want 2", args, code)
		}
		if _, err := os.Stat(journal); !os.IsNotExist(err) {
			t.Errorf("fedsim %v created the journal before rejecting the command line", args)
		}
		if got := runtime.GOMAXPROCS(0); got != procs {
			t.Errorf("fedsim %v set GOMAXPROCS to %d before rejecting the command line", args, got)
			runtime.GOMAXPROCS(procs)
		}
	}
}
