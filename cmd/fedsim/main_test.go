package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
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
	// drives the same code the subcommand does, on narrowed options.
	direct func(stdout *bytes.Buffer)
	heavy  bool // trains models: skipped under -short
	csv    bool // append "-csv <tmp>/out.csv" and pin the file too
	mask   func(string) string
}

var (
	wallClock = regexp.MustCompile(`completed in \S+`)
	duration  = regexp.MustCompile(`\b\d+(\.\d+)?(ns|µs|ms|s)\b`)
	spaces    = regexp.MustCompile(` {2,}`)
	rule      = regexp.MustCompile(`(?m)^-+$`)
)

// maskScale blanks scale's two duration columns; their widths move the
// column padding and the rule under the header, so those are collapsed.
func maskScale(s string) string {
	s = duration.ReplaceAllString(s, "<T>")
	s = spaces.ReplaceAllString(s, " ")
	return rule.ReplaceAllString(s, "---")
}

var invocations = []invocation{
	// Always on: dispatch, help and every up-front rejection.
	{name: "help", args: []string{"help"}},
	{name: "no-args", args: nil},
	{name: "unknown-subcommand", args: []string{"run", "-quick", "-journal", "$TMP/j.jsonl"}},
	{name: "undefined-flag", args: []string{"comm", "-bogus"}},
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

	// Every experiment subcommand at a narrowed configuration.
	{name: "table1", heavy: true, csv: true,
		args: []string{"table1", "-quick", "-seeds", "1", "-datasets", "fmnist", "-methods", "FedAvg,FedClust"}},
	{name: "fig1", heavy: true, args: []string{"fig1", "-quick"}},
	{name: "comm", heavy: true, args: []string{"comm", "-quick", "-rounds", "2"}},
	{name: "newcomer", heavy: true, args: []string{"newcomer", "-quick"}},
	{name: "sweep-alpha", heavy: true, direct: directAlphaSweep},
	{name: "scale", heavy: true, args: []string{"scale"}, mask: maskScale},
	{name: "ablation-layer", heavy: true, args: []string{"ablation-layer", "-quick"}},
	{name: "ablation-linkage", heavy: true, args: []string{"ablation-linkage", "-quick"}},
	{name: "ablation-selector", heavy: true, args: []string{"ablation-selector", "-quick"}},
	{name: "ablation-compression", heavy: true, direct: directCompression},
	{name: "stragglers", heavy: true, csv: true,
		args: []string{"stragglers", "-quick", "-dropouts", "0,0.3", "-methods", "FedAvg,FedAvgStale"}},
	{name: "stragglers-control", heavy: true,
		args: []string{"stragglers", "-quick", "-scenario=false", "-dropouts", "0,0.3", "-methods", "FedAvg"}},
	{name: "hostile", heavy: true, csv: true,
		args: []string{"hostile", "-quick", "-byzantine-frac", "0,0.2", "-aggregator", "mean,median", "-methods", "FedAvg"}},
}

// directAlphaSweep is `fedsim sweep-alpha -quick` on two alphas (the
// five-alpha default takes 16 s).
func directAlphaSweep(out *bytes.Buffer) {
	stdout = out
	fmt.Fprintln(stdout, "== S1: heterogeneity sweep (Dirichlet alpha) ==")
	opts := experiments.DefaultAlphaSweepOptions()
	opts.Quick = true
	opts.Alphas = []float64{0.1, 10}
	opts.Progress = stdout
	res := experiments.RunAlphaSweep(opts)
	fmt.Fprintln(stdout)
	res.Render(stdout)
	for _, c := range res.ShapeChecks() {
		fmt.Fprintln(stdout, c)
	}
}

// directCompression is `fedsim ablation-compression -quick` on one method,
// one sparse codec and 6 rounds (the default sweep takes 33 s).
func directCompression(out *bytes.Buffer) {
	stdout = out
	fmt.Fprintln(stdout, "== A4: accuracy-vs-measured-bytes frontier of the uplink codecs ==")
	opts := experiments.DefaultCompressionOptions()
	opts.Methods = []string{"FedAvg"}
	opts.Codecs = opts.Codecs[3:]
	opts.Rounds = 6
	opts.Progress = stdout
	res := experiments.RunCompression(opts)
	fmt.Fprintln(stdout)
	res.Render(stdout)
	fmt.Fprintln(stdout)
	for _, c := range res.ShapeChecks() {
		fmt.Fprintln(stdout, c)
	}
	header, rows := res.CSV()
	fmt.Fprintln(stdout, "--- csv")
	if err := experiments.WriteCSV(stdout, header, rows); err != nil {
		panic(err)
	}
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
		inv.direct(&out)
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
