package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"fedclust/internal/cluster"
	"fedclust/internal/core"
	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/linalg"
	"fedclust/internal/methods"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/stats"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passResult is what one pass over one workload reports.
type passResult struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Trace       bool              `json:"trace"`
	Correct     bool              `json:"correct"`
	Attempted   int64             `json:"ops_attempted"`
	Failed      int64             `json:"ops_failed"`
	Fingerprint string            `json:"fingerprint"`
	Metrics     map[string]metric `json:"metrics"`
	// Spread holds count, min and max of each repeated timing.
	Spread map[string]summary `json:"spread,omitempty"`
	// Problems lists every failed correctness check.
	Problems []string `json:"problems,omitempty"`
	// Findings are the reconciliation residuals (traced pass).
	Findings []string `json:"findings,omitempty"`
}

func (p *passResult) fail(format string, args ...any) {
	p.Correct = false
	p.Problems = append(p.Problems, fmt.Sprintf(format, args...))
}

func (p *passResult) set(name string, v float64) {
	p.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// formation is the outcome of one composed one-shot formation.
type formation struct {
	state   *core.ClusterState
	upBytes int64
	// stage wall-clock, nanoseconds.
	collectNS, pairwiseNS, agglomerateNS, cutNS int64
}

// formClusters runs FedClust's one-shot formation over env through the
// same public functions and defaults FedClust.Run uses: warm-up visits
// that upload the final layer, the proximity matrix, average-linkage
// agglomeration and the silhouette cut.
func formClusters(env *fl.Env) formation {
	var cfg core.Config
	n := len(env.Clients)
	maxK := n / 2
	if maxK < 2 {
		maxK = 2
	}
	init := nn.FlattenParams(env.NewModel())
	t0 := time.Now()
	features := core.CollectPartialWeights(env, cfg, init)
	t1 := time.Now()
	prox := linalg.PairwiseDistances(cfg.Metric, features)
	t2 := time.Now()
	den := cluster.Agglomerate(prox, cfg.Linkage)
	t3 := time.Now()
	labels := den.CutBestSilhouette(prox, 2, maxK, cluster.SilhouetteTolerance)
	t4 := time.Now()
	k := cluster.NumClusters(labels)
	return formation{
		state: &core.ClusterState{
			Labels: labels, K: k, Features: features,
			Centroids:  centroidsOf(features, labels, k),
			Dendrogram: den, Metric: cfg.Metric,
			InitLayer: core.InitLayerVector(env, cfg), Cfg: cfg,
		},
		// Every client uploads one dense framed message holding the final
		// layer, under the broadcast codec — what FedClust.Run charges.
		upBytes:       int64(n) * fl.TrainResponseBytes(env.Codec.Downlink(), len(features[0])),
		collectNS:     int64(t1.Sub(t0)),
		pairwiseNS:    int64(t2.Sub(t1)),
		agglomerateNS: int64(t3.Sub(t2)),
		cutNS:         int64(t4.Sub(t3)),
	}
}

func (f formation) totalNS() int64 { return f.collectNS + f.pairwiseNS + f.agglomerateNS + f.cutNS }

// centroidsOf is the per-cluster mean feature, summed in client order.
func centroidsOf(features [][]float64, labels []int, k int) [][]float64 {
	out := make([][]float64, k)
	counts := make([]int, k)
	for c := range out {
		out[c] = make([]float64, len(features[0]))
	}
	for i, f := range features {
		c := labels[i]
		counts[c]++
		for j, v := range f {
			out[c][j] += v
		}
	}
	for c := range out {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		for j := range out[c] {
			out[c][j] *= inv
		}
	}
	return out
}

// arrivalRig is the reused state of the newcomer path: one model and one
// training scratch, as a server placing late clients one at a time holds.
type arrivalRig struct {
	model   *nn.Sequential
	scratch fl.TrainScratch
	init    []float64
}

func newArrivalRig(env *fl.Env) *arrivalRig {
	m := env.NewModel()
	return &arrivalRig{model: m, scratch: fl.TrainScratch{DType: env.DType}, init: nn.FlattenParams(m)}
}

// place takes arrival j from its data to its cluster: the local warm-up
// visit from w0, the feature, the nearest centroid.
func (a *arrivalRig) place(env *fl.Env, st *core.ClusterState, j int, d *data.Dataset) int {
	nn.LoadParams(a.model, a.init)
	a.scratch.LocalUpdate(a.model, d, env.Local, rng.New(env.Seed).Derive(0x4e3c, uint64(j)))
	return st.AssignNewcomer(st.NewcomerFeature(a.model))
}

// plannedWork counts what one run is scheduled to do: client visits, and
// training samples processed by the visits that run.
func (in *instance) plannedWork() (visits, samples int64) {
	env := in.env
	e := env.Local.Epochs
	for r := 0; r < env.Rounds; r++ {
		for c, cl := range env.Clients {
			visits++
			done := e
			if in.scen != nil {
				done, _ = in.scen.Outcome(c, r, e)
			}
			samples += int64(cl.Train.Len()) * int64(done)
		}
	}
	if in.isFedClust() {
		for _, cl := range env.Clients {
			visits++
			samples += int64(cl.Train.Len()) * int64(e)
		}
	}
	return visits, samples
}

// join brings the workload's nodes up for one run; settle tears them
// down once the caller is done with the fleet. Both are no-ops for
// in-process workloads.
func (in *instance) join() error {
	if in.rig == nil {
		return nil
	}
	fleet, err := in.rig.up(len(in.env.Clients))
	if err != nil {
		return err
	}
	in.env.Remote = fleet
	return nil
}

// runOnce joins the nodes and times one Trainer.Run. It leaves the
// nodes up for the caller to settle.
func (in *instance) runOnce() (*fl.Result, fl.Trainer, time.Duration, error) {
	if err := in.join(); err != nil {
		return nil, nil, 0, err
	}
	tr := in.trainer()
	t0 := time.Now()
	res := tr.Run(in.env)
	return res, tr, time.Since(t0), nil
}

func (in *instance) isFedClust() bool {
	_, ok := in.trainer().(*core.FedClust)
	return ok
}

func (in *instance) settle() error {
	if in.rig == nil {
		return nil
	}
	in.env.Remote = nil
	return in.rig.down()
}

func (in *instance) close() error {
	if in.rig == nil {
		return nil
	}
	return in.rig.close()
}

// fingerprint hashes everything a run decides: accuracy bits, per-client
// accuracy, byte totals and cluster labels.
func fingerprint(res *fl.Result, extra ...[]int) string {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	word(math.Float64bits(res.FinalAcc))
	for _, a := range res.PerClientAcc {
		word(math.Float64bits(a))
	}
	word(uint64(res.Comm.UpBytes))
	word(uint64(res.Comm.DownBytes))
	word(uint64(res.ClusterFormationUpBytes))
	for _, l := range res.Clusters {
		word(uint64(l))
	}
	for _, xs := range extra {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(uint64(x))
		}
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// majorityCluster maps each ground-truth group to the cluster most of
// its founders were put in.
func majorityCluster(truth, labels []int) map[int]int {
	counts := map[[2]int]int{}
	for i, g := range truth {
		counts[[2]int{g, labels[i]}]++
	}
	out := map[int]int{}
	best := map[int]int{}
	for key, c := range counts {
		if c > best[key[0]] || (c == best[key[0]] && key[1] < out[key[0]]) {
			best[key[0]], out[key[0]] = c, key[1]
		}
	}
	return out
}

// checkFormation compares the composed formation with what the run
// itself decided (FedClust workloads) and with the ground truth (group
// populations).
func (in *instance) checkFormation(p *passResult, f formation, res *fl.Result, tr fl.Trainer) {
	if fc, ok := tr.(*core.FedClust); ok {
		if !slices.Equal(f.state.Labels, res.Clusters) {
			p.fail("composed formation labels differ from Result.Clusters")
		}
		if f.upBytes != res.ClusterFormationUpBytes {
			p.fail("composed formation uplink %d B, run charged %d B", f.upBytes, res.ClusterFormationUpBytes)
		}
		if fc.State != nil {
			for c := range fc.State.Centroids {
				for j, v := range fc.State.Centroids[c] {
					if math.Float64bits(v) != math.Float64bits(f.state.Centroids[c][j]) {
						p.fail("composed centroid %d differs from the run's", c)
						break
					}
				}
			}
		}
		if in.truth != nil && cluster.ARI(res.Clusters, in.truth) != 1 {
			p.fail("ARI against the ground-truth groups is %v, want 1", cluster.ARI(res.Clusters, in.truth))
		}
	}
}

// formationSlice is how long a repetition keeps repeating a short
// formation.
const formationSlice = 250 * time.Millisecond

// endToEndPass is the untraced pass: set-up repeated, then timed repetitions
// of complete runs until the budget is spent.
func endToEndPass(w *workload, seed uint64, budget time.Duration, smoke bool) (*passResult, error) {
	p := &passResult{Workload: w.Name, Seed: seed, Correct: true, Metrics: map[string]metric{}, Spread: map[string]summary{}}
	setups := pick(smoke, 3, 1)
	minReps := pick(smoke, 3, 1)

	var (
		in      *instance
		setupS  []float64
		ref     *fl.Result
		refPlan [2]int64
	)
	for s := 0; s < setups; s++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
			in = nil
			runtime.GC()
		}
		t0 := time.Now()
		in = w.build(seed, smoke)
		res, _, _, err := in.runOnce() // the cold run: warms pools, shadows, batchers
		if err != nil {
			return nil, err
		}
		if err := in.settle(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		ref = res
	}
	defer in.close() // the listener; errors here change nothing the pass reports
	refPlan[0], refPlan[1] = in.plannedWork()
	env := in.env

	// The plain in-process run of the same recipe: what a transported run
	// must reproduce bit for bit, bytes included.
	if in.rig != nil {
		base, err := in.rig.spec.Build()
		if err != nil {
			return nil, err
		}
		base.Workers = benchWorkers
		local := in.trainer().Run(base)
		if fingerprint(local) != fingerprint(ref) {
			p.fail("TCP run fingerprint %s differs from the in-process run's %s", fingerprint(ref), fingerprint(local))
		}
		dUp, dDown := local.Comm.UpBytes-ref.Comm.UpBytes, local.Comm.DownBytes-ref.Comm.DownBytes
		if dUp != 0 || dDown != 0 {
			p.fail("estimated bytes up %d down %d, transport measured up %d down %d",
				local.Comm.UpBytes, local.Comm.DownBytes, ref.Comm.UpBytes, ref.Comm.DownBytes)
		}
		p.Findings = append(p.Findings,
			fmt.Sprintf("fingerprint: TCP run %s, in-process run of the same Spec %s (must be equal)", fingerprint(ref), fingerprint(local)),
			fmt.Sprintf("bytes: fl estimate minus transport-measured = up %d B, down %d B (must be 0)", dUp, dDown))
	}

	var (
		runS, formS []float64
		arriveMS    = make([][]float64, len(in.arrivals)) // per arrival, one latency per repetition
		refPrint    string
		lastForm    formation
		arr         = newArrivalRig(env)
	)
	start := time.Now()
	for rep := 0; rep < minReps || (!smoke && time.Since(start) < budget); rep++ {
		runtime.GC() // every repetition starts from a collected heap
		res, tr, took, err := in.runOnce()
		if err != nil {
			return nil, err
		}
		runS = append(runS, took.Seconds())

		// A formation much shorter than a run is repeated, so that every
		// repetition gives each timing a comparable share of its time.
		var f formation
		for spent := time.Duration(0); ; {
			t0 := time.Now()
			f = formClusters(env)
			d := time.Since(t0)
			formS = append(formS, d.Seconds())
			if spent += d; smoke || spent >= formationSlice {
				break
			}
		}
		lastForm = f

		assigned := make([]int, len(in.arrivals))
		for j, d := range in.arrivals {
			t0 := time.Now()
			assigned[j] = arr.place(env, f.state, j, d)
			arriveMS[j] = append(arriveMS[j], float64(time.Since(t0))/1e6)
		}
		if err := in.settle(); err != nil {
			return nil, err
		}

		print := fingerprint(res, f.state.Labels, assigned)
		p.Attempted += refPlan[0]
		if rep == 0 {
			refPrint = print
			if fingerprint(res) != fingerprint(ref) {
				p.fail("warm run differs from the cold run")
			}
			in.checkFormation(p, f, res, tr)
			if in.truth != nil && in.isFedClust() {
				home := majorityCluster(in.truth, f.state.Labels)
				routed := 0
				for j, c := range assigned {
					if c == home[in.arrivalGroup[j]] {
						routed++
					}
				}
				if routed != len(assigned) {
					p.fail("%d of %d newcomers routed to another group's cluster", len(assigned)-routed, len(assigned))
				}
				p.Findings = append(p.Findings,
					fmt.Sprintf("formation: ARI against the ground-truth groups = %v (must be 1)", cluster.ARI(res.Clusters, in.truth)),
					fmt.Sprintf("newcomers: %d of %d routed to their group's cluster (must be all)", routed, len(assigned)))
			}
		} else if print != refPrint {
			p.fail("repetition %d fingerprint %s differs from the first's %s", rep, print, refPrint)
			p.Failed += refPlan[0]
		}
		ref = res
	}

	chance := 100 / float64(in.dataCfg.Classes)
	if acc := 100 * ref.FinalAcc; !smoke && acc < chance+10 {
		p.fail("final accuracy %.2f%% is within 10 pp of chance (%.1f%%)", acc, chance)
	}
	p.Fingerprint = refPrint
	// Every repetition does the same arithmetic, so what separates two of
	// them is the host. Interference only ever adds time: the fastest
	// repetition is the one the host disturbed least.
	run, form := summarize(runS), summarize(formS)
	var placed, allMS []float64
	for _, ms := range arriveMS {
		placed = append(placed, summarize(ms).Min)
		allMS = append(allMS, ms...)
	}
	if !smoke && !supported(len(placed), 0.9) {
		p.fail("%d arrivals leave fewer than %d beyond the 90th percentile", len(placed), minBeyond)
	}
	p.set("setup_s", stats.Median(setupS))
	p.set("run_s", run.Min)
	p.set("samples_per_s", float64(refPlan[1])/run.Min)
	p.set("formation_s", form.Min)
	p.set("newcomer_ms_p50", stats.Median(placed))
	p.set("newcomer_ms_p90", stats.Quantile(placed, 0.9))
	p.set("up_bytes", float64(ref.Comm.UpBytes))
	p.set("down_bytes", float64(ref.Comm.DownBytes))
	p.set("formation_up_bytes", float64(lastForm.upBytes))
	p.set("final_acc_pct", 100*ref.FinalAcc)
	p.set("peak_rss_mb", peakRSSMB())
	p.Spread["setup_s"] = summarize(setupS)
	p.Spread["run_s"] = run
	p.Spread["formation_s"] = form
	p.Spread["newcomer_ms"] = summarize(allMS)
	if _, ok := in.trainer().(methods.IFCA); ok {
		// IFCA's own formation cost is an outcome of the trajectory, not of
		// the workload's shape; it is recorded beside the metrics, unbounded.
		p.Findings = append(p.Findings, fmt.Sprintf("IFCA clusters last changed in round %d after %d uplink bytes",
			ref.ClusterFormationRound, ref.ClusterFormationUpBytes))
	}
	return p, nil
}
