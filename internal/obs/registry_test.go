package obs_test

// Registry semantics: get-or-create identity, kind safety, histogram
// bucketing, label escaping, and the Prometheus text exposition — every
// emitted line must parse under the exposition grammar, with cumulative
// `le` buckets and sum/count samples for histograms.

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fedclust/internal/obs"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Counter("fedsim_test_total", obs.Label("k", "v"), "help")
	b := r.Counter("fedsim_test_total", obs.Label("k", "v"), "ignored later")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c := r.Counter("fedsim_test_total", obs.Label("k", "w"), "")
	if a == c {
		t.Fatal("distinct labels share a series")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("aliased counter reads %d, want 3", b.Value())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("fedsim_kind_total", "", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("fedsim_kind_total", "", "")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := obs.NewRegistry()
	for _, name := range []string{"", "2start", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid name %q accepted", name)
				}
			}()
			r.Counter(name, "", "")
		}()
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("fedsim_lat_seconds", "", "latency", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.5, 10} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 12 {
		t.Fatalf("count %d sum %g, want 3 and 12", h.Count(), h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`fedsim_lat_seconds_bucket{le="1"} 1`,
		`fedsim_lat_seconds_bucket{le="2"} 2`,
		`fedsim_lat_seconds_bucket{le="5"} 2`,
		`fedsim_lat_seconds_bucket{le="+Inf"} 3`,
		`fedsim_lat_seconds_sum 12`,
		`fedsim_lat_seconds_count 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramUnsortedBucketsPanic(t *testing.T) {
	r := obs.NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("descending buckets accepted")
		}
	}()
	r.Histogram("fedsim_bad_seconds", "", "", []float64{2, 1})
}

func TestLabelEscaping(t *testing.T) {
	got := obs.Label("node", "a\"b\\c\nd")
	want := `node="a\"b\\c\nd"`
	if got != want {
		t.Fatalf("Label escaped to %q, want %q", got, want)
	}
}

// sampleLine matches one exposition sample: metric name, optional label
// block, one float value.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]Inf|[0-9eE.+-]+)$`)

// TestWritePrometheusParses scrapes a registry exercising every
// collector kind and checks each line against the text exposition
// grammar: HELP before TYPE before samples, every sample parseable.
func TestWritePrometheusParses(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("fedsim_requests_total", obs.Label("node", "n-1"), "reqs").Add(7)
	r.Gauge("fedsim_temp", "", "a gauge\nwith newline help").Set(-2.5)
	r.GaugeFunc("fedsim_pull", obs.Label("a", "b")+","+obs.Label("c", "d"), "", func() float64 { return 1 })
	r.CounterFunc("fedsim_pull_total", "", "", func() uint64 { return 9 })
	r.Histogram("fedsim_dur_seconds", "", "", nil).Observe(0.004)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "\n") {
		t.Error("exposition does not end in a newline")
	}
	sawType := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if strings.Contains(line, "\n") {
				t.Errorf("line %d: unescaped newline in HELP", i)
			}
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE %q", i, line)
			}
			sawType[parts[2]] = true
		default:
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: %q does not match the exposition grammar", i, line)
			}
			name := line[:strings.IndexAny(line, "{ ")]
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
			if !sawType[name] && !sawType[base] {
				t.Errorf("line %d: sample %s precedes its TYPE", i, name)
			}
			val := line[strings.LastIndexByte(line, ' ')+1:]
			if val != "NaN" && val != "+Inf" && val != "-Inf" {
				if _, err := strconv.ParseFloat(val, 64); err != nil {
					t.Errorf("line %d: unparseable value %q", i, val)
				}
			}
		}
	}
	if !strings.Contains(out, `fedsim_requests_total{node="n-1"} 7`) {
		t.Errorf("counter sample missing:\n%s", out)
	}
	if !strings.Contains(out, "fedsim_temp -2.5") {
		t.Errorf("gauge sample missing:\n%s", out)
	}
	if !strings.Contains(out, `fedsim_pull{a="b",c="d"} 1`) {
		t.Errorf("multi-label pull gauge missing:\n%s", out)
	}
}

func TestSnapshot(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("fedsim_a_total", "", "").Add(2)
	r.Gauge("fedsim_b", obs.Label("x", "y"), "").Set(1.5)
	r.Histogram("fedsim_c_seconds", "", "", []float64{1}).Observe(0.5)
	s := r.Snapshot()
	if s["fedsim_a_total"] != 2 || s[`fedsim_b{x="y"}`] != 1.5 || s["fedsim_c_seconds_count"] != 1 {
		t.Fatalf("snapshot: %v", s)
	}
}

func TestProcessMetricsRegister(t *testing.T) {
	r := obs.NewRegistry()
	obs.RegisterProcessMetrics(r)
	s := r.Snapshot()
	if s["go_goroutines"] < 1 {
		t.Errorf("go_goroutines = %v", s["go_goroutines"])
	}
	if s["go_heap_alloc_bytes"] <= 0 {
		t.Errorf("go_heap_alloc_bytes = %v", s["go_heap_alloc_bytes"])
	}
}

// TestConcurrentUpdatesAndScrapes hammers one counter, gauge, and
// histogram from many goroutines while scraping — the collectors'
// update paths must be safe against concurrent exposition (run under
// -race in CI's quick job).
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := obs.NewRegistry()
	ctr := r.Counter("fedsim_conc_total", "", "")
	g := r.Gauge("fedsim_conc", "", "")
	h := r.Histogram("fedsim_conc_seconds", "", "", nil)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ctr.Inc()
				g.Set(1)
				h.Observe(0.001)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if ctr.Value() != workers*per {
		t.Errorf("counter %d, want %d", ctr.Value(), workers*per)
	}
	if g.Value() != 1 {
		t.Errorf("gauge %g, want 1", g.Value())
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count %d, want %d", h.Count(), workers*per)
	}
}

func TestSpanGate(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)

	r := obs.NewRegistry()
	h := r.Histogram("fedsim_span_seconds", "", "", nil)

	obs.SetEnabled(false)
	sp := obs.StartSpan(h)
	sp.End()
	if h.Count() != 0 {
		t.Fatal("disabled span observed")
	}
	obs.StartSpan(nil).End() // nil histogram: inert either way

	obs.SetEnabled(true)
	sp = obs.StartSpan(h)
	sp.End()
	if h.Count() != 1 {
		t.Fatalf("enabled span recorded %d observations, want 1", h.Count())
	}
	if h.Sum() < 0 {
		t.Fatalf("span recorded negative elapsed %g", h.Sum())
	}
}

func TestNowMonotonic(t *testing.T) {
	a := obs.Now()
	b := obs.Now()
	if b < a {
		t.Fatalf("Now went backwards: %d then %d", a, b)
	}
}
