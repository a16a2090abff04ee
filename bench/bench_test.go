package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fedclust/internal/stats"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestDeclaredNamesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, list := range [][]decl{endToEnd, perLayer} {
		for _, d := range list {
			check("metric", d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: direction %q", d.Name, d.Better)
			}
			if d.On == "" || strings.Trim(d.On, allWorkloads) != "" {
				t.Errorf("metric %s: workloads %q", d.Name, d.On)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.On != allWorkloads {
			t.Errorf("end-to-end metric %s must lie on every workload", d.Name)
		}
	}
	if len(endToEnd) != 11 || len(workloads) != 4 {
		t.Errorf("the issue fixes 4 workloads and 11 end-to-end metrics, have %d and %d", len(workloads), len(endToEnd))
	}
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with: go run ./bench -benchmark-json > BENCHMARK.json")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := "command end_to_end paths per_layer run_seconds workloads"; strings.Join(keys, " ") != want {
		t.Errorf("BENCHMARK.json keys %v, want exactly %s", keys, want)
	}
}

func TestReadmeGlossaryMatchesTheTables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	printGlossary(&want)
	if !bytes.Contains(readme, want.Bytes()) {
		t.Error("the glossary in README.md differs from the metric tables; regenerate it with: go run ./bench -glossary")
	}
}

// smokeRun runs both passes of every workload once at the smoke scale,
// shared by the tests below.
var smokeRun = struct {
	once    sync.Once
	passes  map[string][2]*passResult
	elapsed time.Duration
	err     error
}{}

func smokePasses(t *testing.T) map[string][2]*passResult {
	t.Helper()
	s := &smokeRun
	s.once.Do(func() {
		s.passes = map[string][2]*passResult{}
		start := time.Now()
		for _, w := range workloads {
			e2e, err := endToEndPass(w, 1, 0, true)
			if err != nil {
				s.err = err
				return
			}
			traced, err := tracedPass(w, 1, 0, true, "")
			if err != nil {
				s.err = err
				return
			}
			s.passes[w.Name] = [2]*passResult{e2e, traced}
		}
		s.elapsed = time.Since(start)
	})
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.passes
}

func TestSmokeRunsEveryWorkloadEndToEnd(t *testing.T) {
	passes := smokePasses(t)
	for _, w := range workloads {
		for _, p := range passes[w.Name] {
			if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, failed %d of %d: %v", w.Name, p.Trace, p.Correct, p.Failed, p.Attempted, p.Problems)
			}
		}
	}
	// The wall-clock limit is checked on the plain run only: the race
	// detector (CI runs it with -short) slows the same work several times.
	if !testing.Short() && smokeRun.elapsed > 10*time.Second {
		t.Errorf("smoke scale took %v, want under 10s", smokeRun.elapsed)
	}
}

func TestEmittedNamesEqualDeclaredNames(t *testing.T) {
	passes := smokePasses(t)
	for _, w := range workloads {
		for _, p := range passes[w.Name] {
			decls := endToEnd
			if p.Trace {
				decls = perLayer
			}
			declared := map[string]bool{}
			for _, d := range decls {
				_, emitted := p.Metrics[d.Name]
				declared[d.Name] = true
				if d.appliesTo(w.Name) && !emitted {
					t.Errorf("%s trace=%v: declared metric %s was not emitted", w.Name, p.Trace, d.Name)
				}
				if !d.appliesTo(w.Name) && emitted {
					t.Errorf("%s trace=%v: metric %s is declared off this workload's path but was emitted", w.Name, p.Trace, d.Name)
				}
			}
			for name, m := range p.Metrics {
				if !declared[name] {
					t.Errorf("%s trace=%v: emitted metric %s is not declared", w.Name, p.Trace, name)
				}
				if !p.Trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
			}
			line := p.line()
			if len(line.Metrics) != len(decls) || !line.Correct {
				t.Errorf("%s trace=%v: driver line has %d metrics (correct %v), want all %d declared", w.Name, p.Trace, len(line.Metrics), line.Correct, len(decls))
			}
		}
	}
}

func TestSeedDecidesTheFingerprint(t *testing.T) {
	passes := smokePasses(t)
	for _, w := range workloads {
		first := passes[w.Name][0].Fingerprint
		again, err := endToEndPass(w, 1, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		if again.Fingerprint != first {
			t.Errorf("%s: seed 1 gave fingerprint %s, then %s", w.Name, first, again.Fingerprint)
		}
		other, err := endToEndPass(w, 2, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		if other.Fingerprint == first {
			t.Errorf("%s: seeds 1 and 2 gave the same fingerprint %s", w.Name, first)
		}
		for _, name := range []string{"up_bytes", "down_bytes", "formation_up_bytes"} {
			if other.Metrics[name] != passes[w.Name][0].Metrics[name] {
				t.Errorf("%s: %s depends on the seed: %v vs %v", w.Name, name, passes[w.Name][0].Metrics[name], other.Metrics[name])
			}
		}
	}
}

func TestPercentileAndTheTenBeyondRule(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0, 0}, {0.5, 50}, {0.9, 90}, {1, 100}, {0.255, 25.5}} {
		if got := stats.Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(0..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s := summarize([]float64{9, 1, 5}); s != (summary{Median: 5, Min: 1, Max: 9, N: 3}) {
		t.Errorf("summarize(9, 1, 5) = %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize of nothing = %+v", s)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{100, 0.9, true}, {99, 0.9, false}, {20, 0.5, true}, {19, 0.5, false}, {1000, 0.99, true}, {999, 0.99, false}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	rec := newRecorder()
	run := rec.add(noParent, 0, spanRun, 0, 100)
	round := rec.add(run, run, spanRound, 10, 90)
	local := rec.add(round, run, spanLocal, 10, 70)
	// Two overlapping visits and one that sticks out past its parent.
	rec.add(local, run, spanVisit, 10, 40)
	rec.add(local, run, spanVisit, 30, 50)
	rec.add(local, run, spanVisit, 60, 80)
	rec.add(round, run, spanCombine, 70, 85)
	spans := rec.snapshot()
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		run:   20, // 100 - round's 80
		round: 5,  // 80 - local's 60 - combine's 15
		local: 10, // 60 - union([10,50], [60,70]) = 60 - 50
	} {
		if self[id] != want {
			t.Errorf("self time of %s = %d, want %d", spans[id].Name, self[id], want)
		}
	}
	if !rooted(spans) {
		t.Error("every span is rooted at the run, rooted says otherwise")
	}
	rec.add(pendingParent, run, spanVisit, 0, 1)
	if rooted(rec.snapshot()) {
		t.Error("a span whose parent was never resolved must not count as rooted")
	}
}

func TestVerdict(t *testing.T) {
	lower := decl{Name: "run_s", Better: "lower", Bound: 0.10}
	higher := decl{Name: "samples_per_s", Better: "higher", Bound: 0.10}
	tight := &summary{Min: 1, Median: 1.02, Max: 1.5, N: 9}
	wide := &summary{Min: 1, Median: 1.2, Max: 1.5, N: 9}
	for _, c := range []struct {
		d      decl
		a, b   float64
		sa, sb *summary
		want   string
	}{
		{lower, 1, 1.05, tight, tight, "unchanged"},
		{lower, 1, 1.2, tight, tight, "regression"},
		{lower, 1, 0.8, tight, tight, "improved"},
		{lower, 1, 1.2, tight, wide, "unresolved"},
		{higher, 100, 85, nil, nil, "regression"},
		{higher, 100, 115, nil, nil, "improved"},
	} {
		if got, _ := verdict(c.d, c.a, c.b, c.sa, c.sb); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}
