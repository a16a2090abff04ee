package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// printPass prints every metric of a pass by name, with its unit and
// direction, in declaration order.
func printPass(w io.Writer, p *passResult, findings bool) {
	kind, decls := "end-to-end (tracing off)", endToEnd
	if p.Trace {
		kind, decls = "per-layer (traced pass + replayed layer calls)", perLayer
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s\n", p.Workload, p.Seed, kind)
	for _, d := range decls {
		m, ok := p.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-30s %14s %-8s %s is better", d.Name, formatG(m.Value), d.Unit, d.Better)
		if s, ok := p.Spread[spreadKey(d.Name)]; ok {
			line += fmt.Sprintf("   n=%d min=%s median=%s max=%s", s.N, formatG(s.Min), formatG(s.Median), formatG(s.Max))
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  fingerprint %s  correct %v\n", p.Attempted, p.Failed, p.Fingerprint, p.Correct)
	for _, s := range p.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", s)
	}
	if findings {
		for _, s := range p.Findings {
			fmt.Fprintf(w, "  finding: %s\n", s)
		}
	}
}

// spreadKey maps a metric to the repeated timing it summarises.
func spreadKey(name string) string {
	switch name {
	case "newcomer_ms_p50", "newcomer_ms_p90":
		return "newcomer_ms"
	}
	return name
}

func loadResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) pass(workload string, trace bool) *passResult {
	for _, p := range f.Passes {
		if p.Workload == workload && p.Trace == trace {
			return p
		}
	}
	return nil
}

// verdict compares one end-to-end metric of two runs under its declared
// bound and direction. worse is the relative change in the bad
// direction. The spread is that of the repetitions the reported value
// stands on: a timing is its fastest repetition, so it is resolved as
// finely as the faster half of the repetitions agree with it, minimum to
// median; the wider of the two runs' spreads counts.
func verdict(d decl, a, b float64, sa, sb *summary) (string, float64) {
	worse := (b - a) / a
	if d.Better == "higher" {
		worse = -worse
	}
	spread := 0.0
	for _, s := range []*summary{sa, sb} {
		if s != nil && s.Min > 0 {
			spread = math.Max(spread, (s.Median-s.Min)/s.Min)
		}
	}
	switch {
	case spread > d.Bound:
		return "unresolved", worse
	case worse > d.Bound:
		return "regression", worse
	case worse < -d.Bound:
		return "improved", worse
	default:
		return "unchanged", worse
	}
}

// compareFiles prints one row per workload and end-to-end metric and
// returns the process exit code: 1 when any row is a regression or any
// run reported failed operations or a failed check.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadResults(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := loadResults(pathB)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(w, "a: %s  commit %s  %s\nb: %s  commit %s  %s\n", pathA, a.Host.Commit, a.Host.Date, pathB, b.Host.Commit, b.Host.Date)
	fmt.Fprintf(w, "%-22s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	status := 0
	for _, wl := range workloads {
		pa, pb := a.pass(wl.Name, false), b.pass(wl.Name, false)
		if pa == nil || pb == nil {
			fmt.Fprintf(w, "%-22s missing from one file\n", wl.Name)
			status = 1
			continue
		}
		for _, d := range endToEnd {
			ma, oka := pa.Metrics[d.Name]
			mb, okb := pb.Metrics[d.Name]
			if !oka || !okb {
				continue
			}
			var sa, sb *summary
			if s, ok := pa.Spread[d.Name]; ok {
				sa = &s
			}
			if s, ok := pb.Spread[d.Name]; ok {
				sb = &s
			}
			v, worse := verdict(d, ma.Value, mb.Value, sa, sb)
			if v == "regression" {
				status = 1
			}
			fmt.Fprintf(w, "%-22s %-20s %14s %14s %8.2f%% %6.1f%%  %s\n", wl.Name, d.Name, formatG(ma.Value), formatG(mb.Value), 100*worse, 100*d.Bound, v)
		}
		for _, p := range []*passResult{pa, pb} {
			share := 0.0
			if p.Attempted > 0 {
				share = float64(p.Failed) / float64(p.Attempted)
			}
			fmt.Fprintf(w, "%-22s ops_failed/ops_attempted %d/%d = %.4f  correct %v\n", wl.Name, p.Failed, p.Attempted, share, p.Correct)
			if p.Failed > 0 || !p.Correct {
				status = 1
			}
		}
	}
	return status
}

// printGlossary prints the README's metric tables.
func printGlossary(w io.Writer) {
	fmt.Fprintln(w, "| end-to-end metric | unit | better | bound | definition |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s %% | %s |\n", d.Name, d.Unit, d.Better, formatG(100*d.Bound), d.What)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| per-layer metric | unit | better | workloads | definition |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, d := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, d.On, d.What)
	}
}
