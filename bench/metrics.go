package main

import (
	"encoding/json"
	"strconv"
	"strings"
)

// decl declares one metric: the table BENCHMARK.json is generated from
// and the comparer reads its bounds and directions from.
type decl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which the metric may
	// get worse (end-to-end metrics only).
	Bound float64
	// On lists the workloads (A, B, C, D in declaration order) whose path
	// the metric lies on. End-to-end metrics lie on all four.
	On string
	// What is the glossary line.
	What string
}

const allWorkloads = "ABCD"

// exact is the bound of a metric that repeats exactly for a given
// commit: any change is a change in behaviour, not noise. It is not zero
// so that "within the bound" and "below the bound" read the same.
const exact = 0.001

var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25, allWorkloads, "data generation + partition + environment build + node joins + the cold run; median of three set-ups in one process"},
	{"run_s", "s", "lower", 0.25, allWorkloads, "wall-clock of one warm Trainer.Run; the fastest of the timed repetitions"},
	{"samples_per_s", "1/s", "higher", 0.25, allWorkloads, "training samples processed (sum over visits of client samples x epochs done) / run_s"},
	{"formation_s", "s", "lower", 0.25, allWorkloads, "FedClust one-shot formation on the workload's population, one composed call: CollectPartialWeights, PairwiseDistances, Agglomerate, CutBestSilhouette; the fastest of its repetitions"},
	{"newcomer_ms_p50", "ms", "lower", 0.25, allWorkloads, "arrival to assigned: warm-up visit from w0, NewcomerFeature, AssignNewcomer; each of the 128 arrivals is placed once per repetition and counted at its fastest; median over arrivals"},
	{"newcomer_ms_p90", "ms", "lower", 0.25, allWorkloads, "90th percentile over the same 128 arrivals"},
	{"up_bytes", "B", "lower", exact, allWorkloads, "Result.Comm.UpBytes of one run"},
	{"down_bytes", "B", "lower", exact, allWorkloads, "Result.Comm.DownBytes of one run"},
	{"formation_up_bytes", "B", "lower", exact, allWorkloads, "uplink bytes of the one-shot formation formation_s times; equals Result.ClusterFormationUpBytes on the FedClust workloads"},
	{"final_acc_pct", "%", "higher", 0.25, allWorkloads, "100 x Result.FinalAcc, mean personalised test accuracy"},
	{"peak_rss_mb", "MB", "lower", 0.20, allWorkloads, "VmHWM of the workload's process at the end of the pass"},
}

var perLayer = []decl{
	{"engine.round_ms_p50", "ms", "lower", 0, allWorkloads, "median round wall time (PhaseObserver TotalNS)"},
	{"engine.round_ms_p90", "ms", "lower", 0, allWorkloads, "90th percentile round wall time"},
	{"engine.phase_sample_frac", "frac", "lower", 0, allWorkloads, "share of round time in participation sampling"},
	{"engine.phase_broadcast_frac", "frac", "lower", 0, allWorkloads, "share in the downlink accounting and Broadcast hook"},
	{"engine.phase_local_frac", "frac", "higher", 0, allWorkloads, "share in the parallel local-training phase"},
	{"engine.phase_combine_frac", "frac", "lower", 0, allWorkloads, "share in masking, folding and aggregation"},
	{"engine.phase_eval_frac", "frac", "lower", 0, allWorkloads, "share in served-model evaluation"},
	{"engine.phase_checkpoint_frac", "frac", "lower", 0, "D", "share in checkpoint capture + sink"},
	{"engine.glue_frac", "frac", "lower", 0, allWorkloads, "share of round time no phase covers"},
	{"engine.allocs_per_round", "count", "lower", 0, allWorkloads, "heap allocations of one untraced run / rounds (whole process, nodes included)"},
	{"engine.alloc_bytes_per_round", "B", "lower", 0, allWorkloads, "heap bytes allocated by one untraced run / rounds"},
	{"sched.dispatch_us", "us", "lower", 0, allWorkloads, "Pool.Run over n no-op items at width 2"},
	{"sched.local_util", "frac", "higher", 0, allWorkloads, "sum of visit time / (local-phase wall x workers)"},
	{"sched.speedup_w2", "x", "higher", 0, "ACD", "local phase of the first rounds at Workers 1 over the same rounds at Workers 2"},
	{"fl.visit_ms_p50", "ms", "lower", 0, allWorkloads, "replayed client visit (load, LocalUpdate, flatten; IFCA's K probes included), median over clients"},
	{"fl.visit_ms_p90", "ms", "lower", 0, allWorkloads, "90th percentile over clients"},
	{"fl.visit_allocs", "count", "lower", 0, allWorkloads, "heap allocations of one warm replayed visit"},
	{"fl.eval_ms", "ms", "lower", 0, allWorkloads, "one serial evaluation sweep over every client's test split"},
	{"fl.aggregate_us", "us", "lower", 0, "ABC", "WeightedAverageInto over n client vectors"},
	{"fl.robust_us", "us", "lower", 0, "D", "coordinate median Aggregate over n client vectors"},
	{"fl.ckpt_encode_ms", "ms", "lower", 0, "D", "Checkpoint.Encode of a mid-run snapshot"},
	{"fl.ckpt_decode_ms", "ms", "lower", 0, "D", "DecodeCheckpoint of the same bytes"},
	{"fl.ckpt_bytes", "B", "lower", 0, "D", "encoded snapshot size"},
	{"fl.ef_visit_us", "us", "lower", 0, "B", "ErrorFeedback.Visit: top-k select, sparse encode, apply, residual"},
	{"nn.fwd_ms", "ms", "lower", 0, allWorkloads, "one training batch forward"},
	{"nn.fwdbwd_ms", "ms", "lower", 0, allWorkloads, "one training batch forward + loss + backward"},
	{"nn.conv_frac", "frac", "lower", 0, allWorkloads, "share of forward + backward inside Conv2D layers"},
	{"opt.step_us", "us", "lower", 0, allWorkloads, "one SGD step over the model"},
	{"data.batch_us", "us", "lower", 0, allWorkloads, "Batcher.Next: gather one minibatch"},
	{"tensor.matmul_gflops", "GFLOP/s", "higher", 0, allWorkloads, "MatMulTransB[32]Into at the model's most expensive x.W^T"},
	{"tensor.im2col_gbps", "GB/s", "higher", 0, "AD", "Im2Col[32]Into over conv1 and conv2 geometry, column bytes written"},
	{"tensor.col2im_gbps", "GB/s", "higher", 0, "AD", "Col2Im[32]Into over the same geometry, column bytes read"},
	{"core.collect_ms", "ms", "lower", 0, allWorkloads, "CollectPartialWeights: warm-up visits + final-layer features"},
	{"core.feature_us", "us", "lower", 0, allWorkloads, "ClusterState.NewcomerFeature"},
	{"core.assign_us", "us", "lower", 0, allWorkloads, "ClusterState.AssignNewcomer"},
	{"linalg.pairwise_ms", "ms", "lower", 0, allWorkloads, "PairwiseDistances over the features"},
	{"cluster.agglomerate_ms", "ms", "lower", 0, allWorkloads, "Agglomerate, average linkage"},
	{"cluster.silhouette_cut_ms", "ms", "lower", 0, allWorkloads, "CutBestSilhouette over k = 2..n/2"},
	{"cluster.k", "count", "lower", 0, allWorkloads, "clusters the cut chose"},
	{"cluster.ari", "ari", "higher", 0, "BC", "adjusted Rand index against the ground-truth groups"},
	{"wire.encode_gbps", "GB/s", "higher", 0, "B", "EncodeInto of the broadcast frame, raw vector bytes per second"},
	{"wire.decode_gbps", "GB/s", "higher", 0, "B", "DecodeInto of the same frame"},
	{"wire.copy_gbps", "GB/s", "higher", 0, "B", "copy of the same vector: the baseline the codec is read against"},
	{"wire.sparse_apply_us", "us", "lower", 0, "B", "ApplySparseInto of one uplink frame"},
	{"wire.uplink_bytes_per_visit", "B", "lower", 0, "B", "framed sparse uplink of one visit"},
	{"wire.compression_ratio", "x", "higher", 0, "B", "dense uplink bytes / sparse uplink bytes"},
	{"transport.rtt_ms_p50", "ms", "lower", 0, "B", "RemoteTrainer.Train wall time per visit, median"},
	{"transport.rtt_ms_p90", "ms", "lower", 0, "B", "90th percentile"},
	{"transport.overhead_ms_p50", "ms", "lower", 0, "B", "rtt_ms_p50 - fl.visit_ms_p50"},
	{"transport.loopback_ms_p50", "ms", "lower", 0, "B", "the same visit through the in-process Loopback transport"},
	{"transport.inflight_mean", "count", "higher", 0, "B", "sum of visit time / local-phase wall"},
	{"transport.up_bytes_per_visit", "B", "lower", 0, "B", "measured client-to-server bytes per visit"},
	{"transport.down_bytes_per_visit", "B", "lower", 0, "B", "measured server-to-client bytes per visit"},
	{"transport.failed", "count", "lower", 0, "B", "visits the transport lost"},
	{"scenario.outcome_ns", "ns", "lower", 0, "D", "Model.Outcome"},
	{"scenario.dropped_visits", "count", "lower", 0, "D", "scheduled visits that did no work in one run"},
	{"scenario.partial_visits", "count", "lower", 0, "D", "visits the deadline cut short in one run"},
	{"obs.journal_round_us", "us", "lower", 0, allWorkloads, "one Journal round event: start, n outcomes, ledger, eval, phases"},
	{"obs.trace_overhead_frac", "frac", "lower", 0, allWorkloads, "(traced - untraced run_s) / untraced"},
}

func findDecl(name string) *decl {
	for _, list := range [][]decl{endToEnd, perLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

func unitOf(name string) string {
	if d := findDecl(name); d != nil {
		return d.Unit
	}
	return ""
}

// letterOf is the workload's letter in the interaction table.
func letterOf(workload string) string {
	for i, w := range workloads {
		if w.Name == workload {
			return allWorkloads[i : i+1]
		}
	}
	return ""
}

// appliesTo reports whether the metric lies on the workload's path.
func (d *decl) appliesTo(workload string) bool {
	return strings.Contains(d.On, letterOf(workload))
}

// runSeconds is how long one driver run measures.
const runSeconds = 15

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is built from literals
	}
	return append(b, '\n')
}

func formatG(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
