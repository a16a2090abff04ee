package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"fedclust/internal/fl"
	"fedclust/internal/stats"
)

// runTraced is one Trainer.Run with every seam the workload has
// decorated. The environment's own fields are restored afterwards.
func (in *instance) runTraced(rec *recorder) (*fl.Result, *runTrace, time.Duration) {
	env := in.env
	saved := *env
	defer func() {
		env.Observer, env.Remote, env.Aggregator, env.Ckpt = saved.Observer, saved.Remote, saved.Aggregator, saved.Ckpt
	}()
	t := startRun(rec, env.Local.Epochs)
	env.Observer = t
	if env.Remote != nil {
		env.Remote = &tracedRemote{inner: env.Remote, t: t}
	}
	if env.Aggregator != nil {
		env.Aggregator = &tracedAggregator{inner: env.Aggregator, t: t}
	}
	if env.Ckpt != nil {
		env.Ckpt = &fl.CheckpointPlan{Every: env.Ckpt.Every, Sink: t.tracedSink(&in.ckptBuf)}
	}
	t0 := time.Now()
	res := in.trainer().Run(env)
	took := time.Since(t0)
	t.endRun()
	return res, t, took
}

// localPhaseNS runs the first `rounds` rounds on a copy of the
// environment with the given worker count and returns their local-phase
// wall time.
func (in *instance) localPhaseNS(workers, rounds int) int64 {
	e := in.env
	clone := &fl.Env{
		Clients: e.Clients, Factory: e.Factory, Rounds: rounds, Local: e.Local, Seed: e.Seed,
		EvalBatch: e.EvalBatch, Workers: workers, DType: e.DType, Codec: e.Codec, TopKFrac: e.TopKFrac,
		Participation: e.Participation, Aggregator: e.Aggregator,
	}
	t := startRun(newRecorder(), e.Local.Epochs)
	clone.Observer = t
	in.trainer().Run(clone)
	var ns int64
	for _, p := range t.rounds {
		ns += p.LocalNS
	}
	return ns
}

// tracedPass produces the per-layer numbers: in-run spans from a traced
// run, tracing overhead from untraced runs beside it, and the replayed
// layer calls.
func tracedPass(w *workload, seed uint64, budget time.Duration, smoke bool, traceOut string) (*passResult, error) {
	p := &passResult{Workload: w.Name, Seed: seed, Trace: true, Correct: true, Metrics: map[string]metric{}, Spread: map[string]summary{}}
	replayBudget := time.Duration(pick(smoke, 100, 2)) * time.Millisecond

	in := w.build(seed, smoke)
	defer in.close() // the listener; errors here change nothing the pass reports
	env := in.env
	ref, _, _, err := in.runOnce() // cold
	if err != nil {
		return nil, err
	}
	if err := in.settle(); err != nil {
		return nil, err
	}
	visits, _ := in.plannedWork()

	rec := newRecorder()
	var (
		plainS, tracedS []float64
		rounds          []fl.RoundPhases
		last            *runTrace
		mallocsPerRound float64
		bytesPerRound   float64
		visitNS         []float64
		visitSum        int64
	)
	start := time.Now()
	for pair := 0; pair == 0 || (!smoke && time.Since(start) < budget/2); pair++ {
		if err := in.join(); err != nil {
			return nil, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res := in.trainer().Run(env)
		plainS = append(plainS, time.Since(t0).Seconds())
		runtime.ReadMemStats(&m1)
		if err := in.settle(); err != nil {
			return nil, err
		}
		mallocsPerRound = float64(m1.Mallocs-m0.Mallocs) / float64(env.Rounds)
		bytesPerRound = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(env.Rounds)
		if fingerprint(res) != fingerprint(ref) {
			p.fail("untraced repetition %d differs from the cold run", pair)
			p.Failed += visits
		}

		if err := in.join(); err != nil {
			return nil, err
		}
		tres, t, took := in.runTraced(rec)
		if err := in.settle(); err != nil {
			return nil, err
		}
		tracedS = append(tracedS, took.Seconds())
		if fingerprint(tres) != fingerprint(ref) {
			p.fail("traced repetition %d differs from the untraced run: tracing changed the result", pair)
			p.Failed += visits
		}
		if t.failed > 0 {
			p.fail("transport lost %d visits", t.failed)
			p.Failed += int64(t.failed)
		}
		if in.rig != nil && (t.upB.Load() != tres.Comm.UpBytes || t.downB.Load() != tres.Comm.DownBytes) {
			p.fail("transport carried up %d down %d bytes, ledger says up %d down %d",
				t.upB.Load(), t.downB.Load(), tres.Comm.UpBytes, tres.Comm.DownBytes)
		}
		p.Attempted += 2 * visits
		rounds = append(rounds, t.rounds...)
		visitNS = append(visitNS, t.visitNS...)
		visitSum += t.visitSum.Load()
		last = t
	}
	p.Fingerprint = fingerprint(ref)
	spans := rec.snapshot()
	if !rooted(spans) {
		p.fail("a span's parent chain does not end at its run")
	}
	if traceOut != "" {
		if err := rec.writeFile(traceOut); err != nil {
			return nil, err
		}
	}
	p.Findings = append(p.Findings, "spans: self time per second of traced run (concurrent spans add up): "+selfShares(spans))

	// engine: the phase ladder of every traced round.
	var sum fl.RoundPhases
	totals := make([]float64, len(rounds))
	for i, r := range rounds {
		sum.Add(r)
		totals[i] = float64(r.TotalNS) / 1e6
	}
	total := float64(sum.TotalNS)
	p.set("engine.round_ms_p50", stats.Median(totals))
	p.set("engine.round_ms_p90", stats.Quantile(totals, 0.9))
	p.set("engine.phase_sample_frac", float64(sum.SampleNS)/total)
	p.set("engine.phase_broadcast_frac", float64(sum.BroadcastNS)/total)
	p.set("engine.phase_local_frac", float64(sum.LocalNS)/total)
	p.set("engine.phase_combine_frac", float64(sum.CombineNS)/total)
	p.set("engine.phase_eval_frac", float64(sum.EvalNS)/total)
	if env.Ckpt != nil {
		p.set("engine.phase_checkpoint_frac", float64(sum.CheckpointNS)/total)
	}
	named := sum.SampleNS + sum.BroadcastNS + sum.LocalNS + sum.CombineNS + sum.EvalNS + sum.CheckpointNS
	glue := 1 - float64(named)/total
	p.set("engine.glue_frac", glue)
	p.set("engine.allocs_per_round", mallocsPerRound)
	p.set("engine.alloc_bytes_per_round", bytesPerRound)
	p.set("obs.trace_overhead_frac", (stats.Median(tracedS)-stats.Median(plainS))/stats.Median(plainS))
	p.Spread["untraced_run_s"] = summarize(plainS)
	p.Spread["traced_run_s"] = summarize(tracedS)

	// Replays.
	v := replayVisits(in)
	replayModelLayers(p, in, replayBudget)
	replayServerLayers(p, in, v, replayBudget)

	runs := float64(len(tracedS))
	localNS := float64(sum.LocalNS) / runs // per run
	plannedNS, _ := in.plannedVisitNS(v)
	if in.rig != nil {
		if err := replayWire(p, in, replayBudget); err != nil {
			return nil, err
		}
		rtt := stats.Median(visitNS)
		p.set("transport.rtt_ms_p50", rtt/1e6)
		p.set("transport.rtt_ms_p90", stats.Quantile(visitNS, 0.9)/1e6)
		p.set("transport.overhead_ms_p50", (rtt-stats.Median(v.visitNS()))/1e6)
		p.set("transport.inflight_mean", float64(visitSum)/float64(sum.LocalNS))
		n := float64(len(visitNS)) / runs
		p.set("transport.up_bytes_per_visit", float64(last.upB.Load())/n)
		p.set("transport.down_bytes_per_visit", float64(last.downB.Load())/n)
		p.set("transport.failed", float64(last.failed))
		p.set("sched.local_util", float64(visitSum)/(float64(sum.LocalNS)*benchWorkers))
		share := p.Metrics["transport.overhead_ms_p50"].Value / p.Metrics["transport.rtt_ms_p50"].Value * p.Metrics["engine.phase_local_frac"].Value
		p.Findings = append(p.Findings, finding("transport", "transport+wire share of a round (overhead/rtt x local share)", share, atLeast(share, 0.15)))
	} else {
		p.set("sched.local_util", plannedNS/(localNS*benchWorkers))
		r := pick(smoke, 3, 1)
		if r > env.Rounds {
			r = env.Rounds
		}
		var w2 int64
		for _, ph := range last.rounds[:r] {
			w2 += ph.LocalNS
		}
		p.set("sched.speedup_w2", float64(in.localPhaseNS(1, r))/float64(w2))
	}
	if in.scen != nil {
		if err := replayHostile(p, in, last, replayBudget); err != nil {
			return nil, err
		}
		p.set("scenario.dropped_visits", float64(last.dropped))
		p.set("scenario.partial_visits", float64(last.partial))
	}

	// Reconciliation: residuals are findings, not failures.
	p.Findings = append(p.Findings,
		finding("engine", "glue (round total not covered by its phases)", glue, atMost(glue, 0.05)))
	_, ran := in.plannedVisitNS(v)
	predicted := float64(ran) * p.Metrics["fl.visit_ms_p50"].Value * 1e6 / benchWorkers
	resid := predicted/localNS - 1
	p.Findings = append(p.Findings,
		finding("visits", fmt.Sprintf("%d visits x fl.visit_ms_p50 / %d workers against the local phase, relative residual", ran, benchWorkers), resid, within(resid, 0.25)))
	if in.truth != nil {
		if ari, ok := p.Metrics["cluster.ari"]; ok && in.isFedClust() && ari.Value != 1 {
			p.fail("cluster.ari = %v, want 1", ari.Value)
		}
	}
	return p, nil
}

// selfShares lists each span name's self time as a share of the runs'
// total, largest first.
func selfShares(spans []span) string {
	self := selfTimes(spans)
	byName := map[string]int64{}
	var total int64
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
		if s.Parent == noParent {
			total += s.End - s.Start
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if byName[names[i]] != byName[names[j]] {
			return byName[names[i]] > byName[names[j]]
		}
		return names[i] < names[j]
	})
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s %.3f", name, float64(byName[name])/float64(total))
	}
	return strings.Join(parts, ", ")
}

func atMost(v, limit float64) string {
	if v <= limit {
		return fmt.Sprintf("within %g", limit)
	}
	return fmt.Sprintf("exceeds %g", limit)
}

func atLeast(v, limit float64) string {
	if v >= limit {
		return fmt.Sprintf("at least %g", limit)
	}
	return fmt.Sprintf("below %g", limit)
}

func within(v, limit float64) string {
	if v < 0 {
		v = -v
	}
	return atMost(v, limit)
}
