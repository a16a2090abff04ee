// Command bench is the repository's benchmark: four seeded workloads
// built through the public package APIs, complete fl.Trainer.Run calls
// timed with tracing off for the end-to-end metrics, and a separate
// traced pass for the per-layer ones. See README.md in this directory.
//
//	go run ./bench                      every workload, both passes, full report
//	go run ./bench -check               the same, with the reconciliation findings
//	go run ./bench -smoke               tiny shapes, one repetition
//	go run ./bench -workload NAME -seed N -seconds S -trace 0|1
//	                                    one pass over one workload; the last
//	                                    line of standard output is one JSON object
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// hostInfo is what a result file records about where it was measured.
type hostInfo struct {
	Hostname   string `json:"hostname"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"env_workers"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

func readHost() hostInfo {
	h := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: benchWorkers,
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
	}
	h.Hostname, _ = os.Hostname() // empty when the kernel has none; recorded as such
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					h.CPU = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+uncommitted"
			}
		}
		h.Commit += dirty
	}
	return h
}

// resultFile is what the all-workloads mode writes and -compare reads.
type resultFile struct {
	Host   hostInfo      `json:"host"`
	Seed   uint64        `json:"seed"`
	Smoke  bool          `json:"smoke"`
	Passes []*passResult `json:"passes"`
}

// driverLine is the one JSON object a single pass prints last.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// line renders a pass as the driver expects it: every declared metric of
// the pass's kind, by name. A per-layer metric whose layer is not on the
// workload's path reads 0 there.
func (p *passResult) line() driverLine {
	decls := endToEnd
	if p.Trace {
		decls = perLayer
	}
	out := driverLine{Correct: p.Correct, Attempted: p.Attempted, Failed: p.Failed, Metrics: map[string]metric{}}
	for _, d := range decls {
		m, ok := p.Metrics[d.Name]
		if !ok {
			if d.appliesTo(p.Workload) {
				out.Correct = false
			}
			m = metric{Value: 0, Unit: d.Unit}
		}
		out.Metrics[d.Name] = m
	}
	return out
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one pass over this workload and print one JSON line (default: all workloads, both passes)")
		seed         = flag.Uint64("seed", 1, "seed of every generator the benchmark draws from")
		seconds      = flag.Float64("seconds", runSeconds, "how long one pass measures")
		trace        = flag.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced pass, per-layer metrics")
		smoke        = flag.Bool("smoke", false, "tiny shapes and one repetition")
		check        = flag.Bool("check", false, "print the reconciliation findings")
		outDir       = flag.String("out", "", "directory for results.json and the span files (default: a fresh temporary directory)")
		traceOut     = flag.String("trace-out", "", "with -workload and -trace 1: write the spans to this file")
		full         = flag.Bool("full-result", false, "with -workload: print the whole pass result instead of the driver's line")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		printJSON    = flag.Bool("benchmark-json", false, "print BENCHMARK.json as the metric tables define it")
		glossary     = flag.Bool("glossary", false, "print the metric glossary of README.md as the metric tables define it")
	)
	flag.Parse()
	runtime.GOMAXPROCS(benchWorkers)

	switch {
	case *printJSON:
		os.Stdout.Write(benchmarkJSON())
	case *glossary:
		printGlossary(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *workloadName != "":
		os.Exit(onePass(*workloadName, *seed, *seconds, *trace == 1, *smoke, *traceOut, *full))
	default:
		os.Exit(allWorkloadsMode(*seed, *seconds, *smoke, *check, *outDir))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// onePass runs one pass in this process and prints its result as the
// last line of standard output. Everything else goes to standard error.
func onePass(name string, seed uint64, seconds float64, trace, smoke bool, traceOut string, full bool) int {
	w := findWorkload(name)
	if w == nil {
		fatal("unknown workload %q", name)
	}
	budget := time.Duration(seconds * float64(time.Second))
	var (
		p   *passResult
		err error
	)
	if trace {
		p, err = tracedPass(w, seed, budget, smoke, traceOut)
	} else {
		p, err = endToEndPass(w, seed, budget, smoke)
	}
	if err != nil {
		fatal("%s: %v", name, err)
	}
	printPass(os.Stderr, p, true)
	var b []byte
	if full {
		b, err = json.Marshal(p)
	} else {
		b, err = json.Marshal(p.line())
	}
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(b))
	if !p.Correct || p.Failed > 0 {
		return 1
	}
	return 0
}

// allWorkloadsMode runs both passes of every workload, each in a fresh
// process of this same binary so that set-up time and peak memory belong
// to one workload alone.
func allWorkloadsMode(seed uint64, seconds float64, smoke, check bool, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	if outDir == "" {
		if outDir, err = os.MkdirTemp("", "fedclust-bench-"); err != nil {
			fatal("%v", err)
		}
	} else if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	file := resultFile{Host: readHost(), Seed: seed, Smoke: smoke}
	status := 0
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			args := []string{
				"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-full-result",
			}
			if smoke {
				args = append(args, "-smoke")
			}
			if trace == 1 {
				args = append(args, "-trace-out", filepath.Join(outDir, "spans-"+w.Name+".json"))
			}
			cmd := exec.Command(self, args...)
			out, err := cmd.Output() // waits for the child; its progress lines are dropped, the report below reprints them
			p, perr := lastLinePass(out)
			if perr != nil {
				fatal("%s (trace %d): %v (%v)", w.Name, trace, perr, err)
			}
			if err != nil {
				status = 1
			}
			file.Passes = append(file.Passes, p)
			printPass(os.Stdout, p, check)
		}
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		fatal("%v", err)
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("\nhost: %s, %d cpu, GOMAXPROCS %d, Env.Workers %d, %s %s, commit %s\nresults: %s\n",
		file.Host.CPU, file.Host.NumCPU, file.Host.GOMAXPROCS, file.Host.Workers, file.Host.GoVersion, file.Host.OSArch, file.Host.Commit, path)
	return status
}

func lastLinePass(out []byte) (*passResult, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var p passResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &p, nil
}
