package experiments

import (
	"fmt"

	"fedclust/internal/fl"
	"fedclust/internal/scenario"
	"fedclust/internal/wire"
)

// CompressionOptions configures experiment A4: the accuracy-vs-bytes
// frontier of the uplink codecs. Each (method, codec) cell is a full
// federated run under a straggler scenario with the environment's codec
// selection active — the engine compresses every uplink (sparse codecs
// through the error-feedback accumulator) and CommStats prices the exact
// framed bytes a networked run puts on the wire, so the frontier is
// built from wire volume, not a flat bytes-per-parameter guess. Common.Codec is not
// read (the codec is the swept variable); Common.TopKFrac is the sparse
// codecs' kept fraction (0 = the 1% default).
type CompressionOptions struct {
	Common
	// Methods are the trainers swept (NewTrainer names). The first entry
	// is the benchmark config the shape checks are pinned to.
	Methods []string
	// Codecs are the uplink codecs swept. A Float64 baseline run is added
	// per method if the list omits it (the frontier is relative to it).
	Codecs []wire.Codec
	// Rounds overrides the workload's schedule when > 0. Error feedback
	// at a 1% kept fraction needs tens of rounds to drain its residuals,
	// so the frontier compares codecs at convergence, not mid-transient
	// (at the workload's stock 8 quick rounds sparse codecs trail dense
	// by ~5pp; by 48-64 rounds the gap closes to noise).
	Rounds int
}

// DefaultCompressionOptions probes on the fmnist stand-in.
func DefaultCompressionOptions() CompressionOptions {
	return CompressionOptions{
		Common:  Common{Dataset: "fmnist", Seed: 1, Quick: true},
		Methods: []string{"FedAvg", "FedClust", "FedAvgStale"},
		Codecs:  []wire.Codec{wire.Float64, wire.Float32, wire.Quant8, wire.TopK, wire.TopKQuant8},
		Rounds:  64,
	}
}

// Check rejects unknown dataset and method names.
func (o CompressionOptions) Check() error { return checkNames([]string{o.Dataset}, o.Methods) }

// CompressionRow is one (method, codec) run's outcome.
type CompressionRow struct {
	Method   string
	Codec    wire.Codec
	TopKFrac float64 // effective kept fraction (sparse codecs; 0 dense)
	// UpBytes/DownBytes are the run's total framed transport bytes: the
	// byte ledger, identical in-process, over loopback and over TCP (see
	// TestCommEstimateMatchesLoopbackMeasured).
	UpBytes   int64
	DownBytes int64
	AccPct    float64
	// DeltaPP is the final-accuracy change vs the method's Float64
	// baseline, in percentage points (negative = loss).
	DeltaPP float64
	// UpFactor is the measured uplink reduction vs the Float64 baseline
	// (baseline bytes / this run's bytes).
	UpFactor float64
}

var compressionColumns = []Column[CompressionRow]{
	{"Method", func(r CompressionRow) string { return r.Method }},
	{"Codec", func(r CompressionRow) string { return r.Codec.String() }},
	{"Frac", func(r CompressionRow) string {
		if !r.Codec.Sparse() {
			return "-"
		}
		return fmt.Sprintf("%g", r.TopKFrac)
	}},
	{"Uplink", func(r CompressionRow) string { return fl.FormatBytes(r.UpBytes) }},
	{"Downlink", func(r CompressionRow) string { return fl.FormatBytes(r.DownBytes) }},
	{"Acc%", func(r CompressionRow) string { return f2(r.AccPct) }},
	{"ΔAcc(pp)", func(r CompressionRow) string { return fmt.Sprintf("%+.2f", r.DeltaPP) }},
	{"UpReduction", func(r CompressionRow) string { return fmt.Sprintf("%.1fx", r.UpFactor) }},
}

var compressionCSV = []Column[CompressionRow]{
	{"method", func(r CompressionRow) string { return r.Method }},
	{"codec", func(r CompressionRow) string { return r.Codec.String() }},
	{"topk_frac", func(r CompressionRow) string { return fmt.Sprintf("%g", r.TopKFrac) }},
	{"up_bytes", func(r CompressionRow) string { return fmt.Sprint(r.UpBytes) }},
	{"down_bytes", func(r CompressionRow) string { return fmt.Sprint(r.DownBytes) }},
	{"acc_pct", func(r CompressionRow) string { return f2(r.AccPct) }},
	{"delta_pp", func(r CompressionRow) string { return f2(r.DeltaPP) }},
	{"up_factor", func(r CompressionRow) string { return f2(r.UpFactor) }},
}

// CompressionResult is the frontier table.
type CompressionResult struct {
	Rows []CompressionRow
}

// RunCompression sweeps methods × codecs and measures where each codec
// lands on the accuracy-vs-uplink-bytes frontier. Every cell trains in a
// fresh environment: error-feedback residuals must not leak across codecs.
func RunCompression(opts CompressionOptions) *CompressionResult {
	w := opts.Workload()
	if opts.Rounds > 0 {
		w.Rounds = opts.Rounds
	}
	codecs := []wire.Codec{wire.Float64}
	for _, c := range opts.Codecs {
		if c != wire.Float64 {
			codecs = append(codecs, c)
		}
	}
	var base CompressionRow // the current method's Float64 run, swept first
	rows := sweep(opts.Common, compressionColumns, []axis{
		{n: len(opts.Methods)},
		{n: len(codecs), enter: func(at []int, _ *fl.Env) *fl.Env {
			env := opts.Env(w)
			env.Codec = codecs[at[1]]
			// 30% of clients in a slow cohort: partial work, occasional misses.
			env.Participation.Scenario = scenario.New(scenario.Config{
				StragglerFrac: 0.3, SlowdownMax: 2, Deadline: 1,
			}, opts.Seed, len(env.Clients))
			return env
		}},
	}, func(at []int, env *fl.Env) CompressionRow {
		m, c := opts.Methods[at[0]], codecs[at[1]]
		r := NewTrainer(m, w).Run(env)
		row := CompressionRow{
			Method: m, Codec: c,
			UpBytes: r.Comm.UpBytes, DownBytes: r.Comm.DownBytes,
			AccPct: 100 * r.FinalAcc,
		}
		if c.Sparse() {
			row.TopKFrac = fl.NormalizeTopKFrac(opts.TopKFrac)
		}
		if c == wire.Float64 {
			base = row
		}
		row.DeltaPP = row.AccPct - base.AccPct
		if row.UpBytes > 0 {
			row.UpFactor = float64(base.UpBytes) / float64(row.UpBytes)
		}
		return row
	})
	return &CompressionResult{Rows: rows}
}

// Row returns the (method, codec) cell, or nil.
func (r *CompressionResult) Row(method string, c wire.Codec) *CompressionRow {
	for i := range r.Rows {
		if r.Rows[i].Method == method && r.Rows[i].Codec == c {
			return &r.Rows[i]
		}
	}
	return nil
}

// Report prints the frontier.
func (r *CompressionResult) Report() Report {
	rep := report(compressionColumns, r.Rows, r.ShapeChecks())
	rep.CSV = tableOf(compressionCSV, r.Rows)
	return rep
}

// ShapeChecks verifies the headline claim on the benchmark config (the
// first method in the sweep): sparse top-k with quantized values cuts
// measured uplink ≥10× at ≤1pp accuracy cost, and the plain sparse codec
// already clears the same bar. A codec that was not swept has no check.
func (r *CompressionResult) ShapeChecks() []Check {
	if len(r.Rows) == 0 {
		return nil
	}
	bench := r.Rows[0].Method
	var out []Check
	for _, c := range []wire.Codec{wire.TopKQuant8, wire.TopK} {
		if row := r.Row(bench, c); row != nil {
			out = append(out, check(row.UpFactor >= 10 && row.DeltaPP >= -1,
				"%s %s (frac %g): %.1fx less uplink at %+.2fpp accuracy",
				bench, c, row.TopKFrac, row.UpFactor, row.DeltaPP))
		}
	}
	return out
}
