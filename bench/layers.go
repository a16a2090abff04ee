package main

import (
	"io"
	"runtime"
	"time"

	"fedclust/internal/cluster"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/nn"
	"fedclust/internal/obs"
	"fedclust/internal/opt"
	"fedclust/internal/rng"
	"fedclust/internal/sched"
	"fedclust/internal/stats"
	"fedclust/internal/tensor"
	"fedclust/internal/transport"
	"fedclust/internal/wire"
)

// Replayed layer calls: each layer's public function, called the way the
// run calls it, at the workload's own shapes, data and dtype. They cover
// what no in-run seam reaches.

// timeCalls calls fn in batches of k until budget is spent (at least
// three batches) and returns the per-call nanoseconds of each batch.
func timeCalls(budget time.Duration, k int, fn func()) []float64 {
	fn() // warm: first-use workspaces and caches are set-up, not steady state
	var out []float64
	start := time.Now()
	for len(out) < 3 || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		out = append(out, float64(time.Since(t0))/float64(k))
	}
	return out
}

func medianNS(budget time.Duration, k int, fn func()) float64 {
	return stats.Median(timeCalls(budget, k, fn))
}

// mallocs returns the heap allocation count so far.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// randVec fills a vector with non-zero values (the float64 matmul kernels
// skip zero operands, so zeros would flatter them).
func randVec(r *rng.Rng, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64() + 3
	}
	return v
}

func to32(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// visitReplay is the replayed client visit: what the method's local hook
// does through public functions. probeNS is IFCA's K-model selection
// pass, zero for every other method.
type visitReplay struct {
	trainNS, probeNS []float64 // per client
	allocs           float64   // per visit, warm
}

// visitNS is each client's whole visit: probes plus training.
func (v visitReplay) visitNS() []float64 {
	all := make([]float64, len(v.trainNS))
	for i := range all {
		all[i] = v.trainNS[i] + v.probeNS[i]
	}
	return all
}

func replayVisits(in *instance) visitReplay {
	env := in.env
	n := len(env.Clients)
	w0 := nn.FlattenParams(env.NewModel())
	probes := 0
	if ifca, ok := in.trainer().(methods.IFCA); ok {
		probes = ifca.K
	}
	// One lane per worker, as the engine's pool holds them. The visits run
	// as a round runs them: side by side on the executor, so the tensor
	// kernels inside stay serial and the lanes compete for the same caches.
	type lane struct {
		model   *nn.Sequential
		scratch fl.TrainScratch
		out     []float64
		rng     rng.Rng
	}
	lanes := make([]lane, env.WorkerCount())
	for w := range lanes {
		lanes[w] = lane{model: env.NewModel(), scratch: fl.TrainScratch{DType: env.DType}, out: make([]float64, len(w0))}
	}
	v := visitReplay{trainNS: make([]float64, n), probeNS: make([]float64, n)}
	visit := func(w, i int) {
		l := &lanes[w]
		train := env.Clients[i].Train
		t0 := time.Now()
		for k := 0; k < probes; k++ {
			nn.LoadParams(l.model, w0)
			l.scratch.Evaluate(l.model, train, 64)
		}
		t1 := time.Now()
		nn.LoadParams(l.model, w0)
		env.ClientRngInto(&l.rng, i, 0)
		l.scratch.LocalUpdate(l.model, train, env.Local, &l.rng)
		nn.FlattenParamsInto(l.model, l.out)
		v.probeNS[i] = float64(t1.Sub(t0))
		v.trainNS[i] = float64(time.Since(t1))
	}
	env.ParallelClientsWorker(n, visit) // warm each client's batcher and each lane's shadow
	before := mallocs()
	env.ParallelClientsWorker(n, visit)
	v.allocs = float64(mallocs()-before) / float64(n)
	return v
}

// serialKernels runs fn the way code inside a round's parallel phase
// runs: with an executor region active, so the tensor kernels fn reaches
// take their serial path instead of fanning out over idle workers.
func serialKernels(fn func()) {
	sched.Default().Run(2, 2, func(_, i int) {
		if i == 0 {
			fn()
		}
	})
}

// plannedVisitNS is the visit time the replay predicts for one whole
// run: every scheduled visit's replayed cost, partial passes scaled by
// the epochs they complete, FedClust's warm-up visits included.
func (in *instance) plannedVisitNS(v visitReplay) (total float64, visits int) {
	env := in.env
	e := env.Local.Epochs
	for r := 0; r < env.Rounds; r++ {
		for c := range env.Clients {
			done := e
			if in.scen != nil {
				done, _ = in.scen.Outcome(c, r, e)
			}
			if done == 0 {
				continue
			}
			total += v.probeNS[c] + v.trainNS[c]*float64(done)/float64(e)
			visits++
		}
	}
	return total, visits
}

// net abstracts the two layer sets so one replay serves both dtypes.
type netLayer[T any] interface {
	Forward(x T, train bool) T
	Backward(grad T) T
}

type lossHead[T any] interface {
	Loss(logits T, labels []int) (float64, T, T)
}

// replayNet pushes one batch through the layers: forward alone, forward
// plus backward, and the share of forward plus backward spent inside
// convolution layers.
func replayNet[T any](budget time.Duration, layers []netLayer[T], conv []bool, ce lossHead[T], x T, y []int) (fwdNS, fwdbwdNS, convFrac float64) {
	forward := func(train bool) T {
		h := x
		for _, l := range layers {
			h = l.Forward(h, train)
		}
		return h
	}
	fwdNS = medianNS(budget, 1, func() { forward(false) })
	fwdbwdNS = medianNS(budget, 1, func() {
		_, g, _ := ce.Loss(forward(true), y)
		for i := len(layers) - 1; i >= 0; i-- {
			g = layers[i].Backward(g)
		}
	})
	var convNS, allNS float64
	step := func() {
		h := x
		for i, l := range layers {
			t0 := time.Now()
			h = l.Forward(h, true)
			d := float64(time.Since(t0))
			allNS += d
			if conv[i] {
				convNS += d
			}
		}
		_, g, _ := ce.Loss(h, y)
		for i := len(layers) - 1; i >= 0; i-- {
			t0 := time.Now()
			g = layers[i].Backward(g)
			d := float64(time.Since(t0))
			allNS += d
			if conv[i] {
				convNS += d
			}
		}
	}
	timeCalls(budget, 1, step)
	if allNS > 0 {
		convFrac = convNS / allNS
	}
	return fwdNS, fwdbwdNS, convFrac
}

// matmulShape is the model's most expensive x·Wᵀ at batch size b.
func matmulShape(model *nn.Sequential, b int) (m, k, n int) {
	best := 0
	for _, l := range model.Layers {
		var lm, lk, ln int
		switch t := l.(type) {
		case *nn.Conv2D:
			lm, lk, ln = b*t.Geom.OutH()*t.Geom.OutW(), t.Geom.InC*t.Geom.KH*t.Geom.KW, t.OutC
		case *nn.Dense:
			lm, lk, ln = b, t.In, t.Out
		}
		if lm*lk*ln > best {
			best, m, k, n = lm*lk*ln, lm, lk, ln
		}
	}
	return m, k, n
}

// replayModelLayers fills the nn, opt, data and tensor metrics.
func replayModelLayers(p *passResult, in *instance, budget time.Duration) {
	serialKernels(func() { replayModelLayersSerial(p, in, budget) })
}

func replayModelLayersSerial(p *passResult, in *instance, budget time.Duration) {
	env := in.env
	f32 := env.DType == fl.Float32
	model := env.NewModel()
	d := env.Clients[0].Train
	for _, c := range env.Clients {
		if c.Train.Len() > d.Len() {
			d = c.Train
		}
	}
	bs := env.Local.BatchSize
	conv := make([]bool, len(model.Layers))
	var geoms []tensor.ConvGeom
	for i, l := range model.Layers {
		if c, ok := l.(*nn.Conv2D); ok {
			conv[i] = true
			geoms = append(geoms, c.Geom)
		}
	}
	r := rng.New(1)

	var fwd, fwdbwd, frac, stepNS, batchNS float64
	if f32 {
		sh := nn.Mirror32(model)
		nn.AssignParams32(sh, model)
		bt := d.Batcher32(bs)
		bt.Reset(nil)
		b, _ := bt.Next()
		layers := make([]netLayer[*tensor.Tensor32], len(sh.Layers))
		for i, l := range sh.Layers {
			layers[i] = l
		}
		fwd, fwdbwd, frac = replayNet[*tensor.Tensor32](budget, layers, conv, &nn.SoftmaxCE32{}, b.X, b.Y)
		sgd := opt.NewSGD32(env.Local.LR, env.Local.Momentum, env.Local.WeightDecay)
		stepNS = medianNS(budget, 1, func() { sgd.Step(sh.Params(), sh.Grads()) })
		batchNS = medianNS(budget, 1, func() {
			if _, ok := bt.Next(); !ok {
				bt.Reset(nil)
			}
		})
	} else {
		bt := d.Batcher(bs)
		bt.Reset(nil)
		b, _ := bt.Next()
		x := b.X.Clone() // the batcher's view is rewritten by the batch replay below
		y := append([]int(nil), b.Y...)
		layers := make([]netLayer[*tensor.Tensor], len(model.Layers))
		for i, l := range model.Layers {
			layers[i] = l
		}
		fwd, fwdbwd, frac = replayNet[*tensor.Tensor](budget, layers, conv, &nn.SoftmaxCE{}, x, y)
		sgd := opt.NewSGD(env.Local.LR, env.Local.Momentum, env.Local.WeightDecay)
		stepNS = medianNS(budget, 1, func() { sgd.Step(model.Params(), model.Grads()) })
		batchNS = medianNS(budget, 1, func() {
			if _, ok := bt.Next(); !ok {
				bt.Reset(nil)
			}
		})
	}
	p.set("nn.fwd_ms", fwd/1e6)
	p.set("nn.fwdbwd_ms", fwdbwd/1e6)
	p.set("nn.conv_frac", frac)
	p.set("opt.step_us", stepNS/1e3)
	p.set("data.batch_us", batchNS/1e3)

	m, k, n := matmulShape(model, bs)
	a, b := randVec(r, m*k), randVec(r, n*k)
	var mmNS float64
	if f32 {
		dst, ta, tb := tensor.New32(m, n), tensor.FromSlice32(to32(a), m, k), tensor.FromSlice32(to32(b), n, k)
		mmNS = medianNS(budget, 1, func() { tensor.MatMulTransB32Into(dst, ta, tb) })
	} else {
		dst, ta, tb := tensor.New(m, n), tensor.FromSlice(a, m, k), tensor.FromSlice(b, n, k)
		mmNS = medianNS(budget, 1, func() { tensor.MatMulTransBInto(dst, ta, tb) })
	}
	p.set("tensor.matmul_gflops", 2*float64(m)*float64(k)*float64(n)/mmNS)

	if len(geoms) == 0 {
		return
	}
	// One image through every convolution's unroll and scatter; bytes are
	// the column matrix written (im2col) or read (col2im).
	elem := 8.0
	if f32 {
		elem = 4
	}
	var colBytes, imNS, colNS float64
	for _, g := range geoms {
		img := randVec(r, g.InC*g.InH*g.InW)
		cols := randVec(r, g.OutH()*g.OutW()*g.InC*g.KH*g.KW)
		colBytes += elem * float64(len(cols))
		if f32 {
			img32, cols32 := to32(img), to32(cols)
			imNS += medianNS(budget, 4, func() { tensor.Im2Col32Into(img32, g, cols32) })
			colNS += medianNS(budget, 4, func() { tensor.Col2Im32Into(cols32, g, img32) })
		} else {
			imNS += medianNS(budget, 4, func() { tensor.Im2ColInto(img, g, cols) })
			colNS += medianNS(budget, 4, func() { tensor.Col2ImInto(cols, g, img) })
		}
	}
	p.set("tensor.im2col_gbps", colBytes/imNS)
	p.set("tensor.col2im_gbps", colBytes/colNS)
}

// replayServerLayers fills the fl server-side, sched, obs, core and
// cluster metrics every workload has.
func replayServerLayers(p *passResult, in *instance, v visitReplay, budget time.Duration) {
	env := in.env
	n := len(env.Clients)
	model := env.NewModel()
	dim := model.NumParams()
	r := rng.New(2)

	p.set("fl.visit_ms_p50", stats.Median(v.visitNS())/1e6)
	p.set("fl.visit_ms_p90", stats.Quantile(v.visitNS(), 0.9)/1e6)
	p.set("fl.visit_allocs", v.allocs)

	scratch := fl.TrainScratch{DType: env.DType}
	sweep := func() {
		for _, c := range env.Clients {
			scratch.Evaluate(model, c.Test, env.EvalBatchSize())
		}
	}
	serialKernels(func() { p.set("fl.eval_ms", medianNS(budget, 1, sweep)/1e6) })

	vecs := make([][]float64, n)
	ws := make([]float64, n)
	for i := range vecs {
		vecs[i] = randVec(r, dim)
		ws[i] = float64(env.Clients[i].Train.Len())
	}
	dst := make([]float64, dim)
	if env.Aggregator == nil {
		p.set("fl.aggregate_us", medianNS(budget, 1, func() { fl.WeightedAverageInto(dst, vecs, ws) })/1e3)
	} else {
		p.set("fl.robust_us", medianNS(budget, 1, func() { env.Aggregator.Aggregate(dst, vecs, ws) })/1e3)
	}

	pool := sched.New()
	defer pool.Shutdown()
	noop := func(_, _ int) {}
	p.set("sched.dispatch_us", medianNS(budget, 16, func() { pool.Run(n, benchWorkers, noop) })/1e3)

	// One journal round event: start, n outcomes, ledger, eval, phases.
	j := obs.NewJournal(io.Discard, env.Local.Epochs)
	j.ObserveRunStart(p.Workload, env.Rounds, n, 0)
	comm := &fl.CommStats{}
	round := 0
	p.set("obs.journal_round_us", medianNS(budget, 4, func() {
		j.ObserveRoundStart(round, n)
		for c := 0; c < n; c++ {
			j.ObserveOutcome(c, env.Local.Epochs, 0, false)
		}
		j.ObserveRoundEnd(round, n, comm)
		j.ObserveEval(round+1, 0.5, 1)
		j.ObservePhases(round, fl.RoundPhases{LocalNS: 1, TotalNS: 1})
		round++
	})/1e3)

	f := formClusters(env)
	p.set("core.collect_ms", float64(f.collectNS)/1e6)
	p.set("linalg.pairwise_ms", float64(f.pairwiseNS)/1e6)
	p.set("cluster.agglomerate_ms", float64(f.agglomerateNS)/1e6)
	p.set("cluster.silhouette_cut_ms", float64(f.cutNS)/1e6)
	p.set("cluster.k", float64(f.state.K))
	if in.truth != nil {
		p.set("cluster.ari", cluster.ARI(f.state.Labels, in.truth))
	}
	feature := f.state.NewcomerFeature(model)
	p.set("core.feature_us", medianNS(budget, 8, func() { f.state.NewcomerFeature(model) })/1e3)
	p.set("core.assign_us", medianNS(budget, 8, func() { f.state.AssignNewcomer(feature) })/1e3)
	share := float64(f.pairwiseNS+f.agglomerateNS+f.cutNS) / float64(f.totalNS())
	p.Findings = append(p.Findings, finding("formation", "linalg+cluster share of the composed formation", share, ""))
}

// replayWire fills the wire, error-feedback and loopback metrics of a
// transported workload.
func replayWire(p *passResult, in *instance, budget time.Duration) error {
	env := in.env
	dim := env.NewModel().NumParams()
	r := rng.New(3)
	start, trained := randVec(r, dim), randVec(r, dim)
	down := env.Codec.Downlink()

	var frame []byte
	encNS := medianNS(budget, 1, func() { frame = wire.EncodeInto(frame[:0], down, start) })
	decoded := make([]float64, dim)
	var derr error
	decNS := medianNS(budget, 1, func() {
		if _, err := wire.DecodeInto(decoded, frame); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return derr
	}
	copyNS := medianNS(budget, 1, func() { copy(decoded, start) })
	raw := 8 * float64(dim)
	p.set("wire.encode_gbps", raw/encNS)
	p.set("wire.decode_gbps", raw/decNS)
	p.set("wire.copy_gbps", raw/copyNS)

	frac := fl.NormalizeTopKFrac(env.TopKFrac)
	ef := fl.NewErrorFeedback(env.Codec, frac, 1, dim)
	var efs fl.EFScratch
	out := make([]float64, dim)
	var sparse []byte
	p.set("fl.ef_visit_us", medianNS(budget, 1, func() {
		copy(out, trained)
		sparse = ef.Visit(sparse[:0], 0, start, out, &efs)
	})/1e3)
	p.set("wire.sparse_apply_us", medianNS(budget, 1, func() {
		if err := wire.ApplySparseInto(out, sparse); err != nil {
			derr = err
		}
	})/1e3)
	if derr != nil {
		return derr
	}
	pricing := fl.PricingFor(env.Codec, env.TopKFrac)
	p.set("wire.uplink_bytes_per_visit", float64(pricing.UploadBytesFor(dim)))
	p.set("wire.compression_ratio", float64(fl.TrainResponseBytes(down, dim))/float64(pricing.UploadBytesFor(dim)))

	// The same visits through the in-process transport: the node's work
	// without sockets.
	replica, err := in.rig.spec.Build()
	if err != nil {
		return err
	}
	replica.Workers = benchWorkers
	lb := transport.NewLoopback(transport.NewService(replica), env.Codec)
	req := fl.RemoteRequest{Cluster: -1, Layer: fl.FullParams, Cfg: env.Local, Start: nn.FlattenParams(env.NewModel())}
	var lbNS []float64
	serialKernels(func() {
		for pass := 0; pass < 2 && err == nil; pass++ { // the first pass warms the service's slots
			for c := range env.Clients {
				req.Client = c
				t0 := time.Now()
				if _, _, err = lb.Train(&req, out); err != nil {
					return
				}
				if pass == 1 {
					lbNS = append(lbNS, float64(time.Since(t0)))
				}
			}
		}
	})
	p.set("transport.loopback_ms_p50", stats.Median(lbNS)/1e6)
	return err
}

// replayHostile fills the scenario and checkpoint metrics.
func replayHostile(p *passResult, in *instance, t *runTrace, budget time.Duration) error {
	n := len(in.env.Clients)
	i := 0
	sink := 0
	p.set("scenario.outcome_ns", medianNS(budget, 64, func() {
		done, lag := in.scen.Outcome(i%n, i/n, in.env.Local.Epochs)
		sink += done + lag
		i++
	}))
	if t.ckptLast == nil {
		return nil
	}
	var enc []byte
	p.set("fl.ckpt_encode_ms", medianNS(budget, 1, func() { enc = t.ckptLast.Encode() })/1e6)
	var derr error
	p.set("fl.ckpt_decode_ms", medianNS(budget, 1, func() {
		if _, err := fl.DecodeCheckpoint(enc); err != nil {
			derr = err
		}
	})/1e6)
	p.set("fl.ckpt_bytes", float64(len(enc)))
	_ = sink
	return derr
}

// finding formats one reconciliation line.
func finding(subject, what string, value float64, verdict string) string {
	s := subject + ": " + what + " = " + formatG(value)
	if verdict != "" {
		s += " (" + verdict + ")"
	}
	return s
}
