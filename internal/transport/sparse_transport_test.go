package transport_test

// Codecs over the transport: the byte-ledger table (a run charges the
// same bytes in-process, over loopback and over TCP, under every codec
// and every fault model), FedClust's dense warmup accounting, and the
// 3-node TCP path carrying TopK overlays.

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"fedclust/internal/core"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/nn"
	"fedclust/internal/scenario"
	"fedclust/internal/transport"
	"fedclust/internal/wire"
)

// codecEnv is the golden environment with a codec selection applied —
// the coordinator side of a compressed run.
func codecEnv(t testing.TB, seed uint64, c wire.Codec, frac float64) *fl.Env {
	env := buildGolden(t, seed)
	env.Codec = c
	env.TopKFrac = frac
	return env
}

// codecFleet is loopbackFleet for an arbitrary codec: the node-side env
// replica carries the same codec selection, so a sparse service builds
// its own error-feedback accumulator exactly as a joined node would.
func codecFleet(t testing.TB, seed uint64, c wire.Codec, frac float64, lo, hi, n int) *transport.Fleet {
	t.Helper()
	nodeEnv := codecEnv(t, seed, c, frac)
	fleet := transport.NewFleet(n)
	fleet.Assign(transport.NewLoopback(transport.NewService(nodeEnv), c), lo, hi)
	return fleet
}

// allCodecs enumerates every uplink codec the wire package defines.
var allCodecs = []wire.Codec{wire.Float64, wire.Float32, wire.Quant8, wire.TopK, wire.TopKQuant8}

// ledgerRow is one configuration of the byte-ledger table: trainers on
// the golden environment under codec, shaped by a fault model (nil =
// fault-free), with clients [lo, hi) trained behind the transport.
type ledgerRow struct {
	name     string
	codec    wire.Codec
	trainers []fl.Trainer
	shape    func(*fl.Env)
	lo, hi   int
	// lossy rows must charge fewer uplink bytes than the fault-free run of
	// the same trainer — proof the fault model actually bit.
	lossy bool
	// tcp additionally runs the row across three localhost nodes.
	tcp bool
}

func stragglerDropouts(env *fl.Env) {
	env.Participation.Scenario = scenario.New(scenario.Config{
		StragglerFrac: 0.4, DropoutRate: 0.15, Deadline: 1.2, Jitter: 0.2,
	}, 7, 6)
}

// ledgerRows: FedAvg (the plain round loop) and FedClust (plus the
// one-shot warm-up with its dense partial upload) under every codec,
// then every way an invited client can fail to become an accepted
// update, then a fleet that is only partly remote.
func ledgerRows() []ledgerRow {
	fedavg := []fl.Trainer{methods.FedAvg{}}
	// FedClust keeps its fitted state on the trainer: one per row, since
	// rows run in parallel.
	both := func() []fl.Trainer { return []fl.Trainer{methods.FedAvg{}, &core.FedClust{}} }
	var rows []ledgerRow
	for _, c := range allCodecs {
		rows = append(rows, ledgerRow{name: c.String(), codec: c, trainers: both(), hi: 6})
	}
	return append(rows,
		ledgerRow{name: "droprate", trainers: fedavg, hi: 6, lossy: true,
			shape: func(env *fl.Env) { env.Participation.DropRate = 0.4 }},
		ledgerRow{name: "stragglers+dropouts", codec: wire.TopK, trainers: fedavg, hi: 6, lossy: true, tcp: true,
			shape: stragglerDropouts},
		ledgerRow{name: "semi-async", trainers: []fl.Trainer{methods.FedBuff{}, methods.FedAvgStale{}}, hi: 6,
			shape: stragglerDropouts},
		// A garbage cohort at a scale that overflows float64: every such
		// uplink holds an Inf, so the engine masks it as non-finite.
		ledgerRow{name: "garbage-masked", trainers: fedavg, hi: 6, lossy: true,
			shape: func(env *fl.Env) {
				env.Participation.Scenario = scenario.New(scenario.Config{
					ByzantineFrac: 0.35, Attack: scenario.AttackGarbage, AttackScale: math.MaxFloat64,
				}, 34, 6)
			}},
		ledgerRow{name: "mixed-fleet", trainers: both(), lo: 2, hi: 5},
		ledgerRow{name: "mixed-fleet+stragglers", codec: wire.TopKQuant8, trainers: fedavg, lo: 2, hi: 5, shape: stragglerDropouts},
	)
}

// sameLedger fails unless got charges exactly want's bytes — totals and
// every per-round entry — and learned exactly what want learned.
func sameLedger(t *testing.T, where string, got, want *fl.Result) {
	t.Helper()
	if got.Comm.UpBytes != want.Comm.UpBytes || got.Comm.DownBytes != want.Comm.DownBytes {
		t.Errorf("%s ledger (up %d, down %d) != in-process (up %d, down %d)", where,
			got.Comm.UpBytes, got.Comm.DownBytes, want.Comm.UpBytes, want.Comm.DownBytes)
	}
	if len(got.Comm.PerRound) != len(want.Comm.PerRound) {
		t.Fatalf("%s: %d per-round entries, in-process %d", where, len(got.Comm.PerRound), len(want.Comm.PerRound))
	}
	for r, w := range want.Comm.PerRound {
		if g := got.Comm.PerRound[r]; g != w {
			t.Errorf("%s round entry %d = %+v, in-process %+v", where, r, g, w)
		}
	}
	if g, w := learningFingerprint(got), learningFingerprint(want); g != w {
		t.Errorf("%s learning diverged from in-process\n got: %s\nwant: %s", where, g, w)
	}
}

// TestCommEstimateMatchesLoopbackMeasured is the byte ledger's one
// table (DESIGN.md §8): wherever the clients train — in-process, behind
// a loopback transport, across real TCP nodes — a run charges the same
// bytes, in total and round by round, and learns the same bits. The
// sockets only cross-check: on a fault-free fully-remote row what they
// measured equals the ledger exactly.
func TestCommEstimateMatchesLoopbackMeasured(t *testing.T) {
	const frac = 0.05
	for _, row := range ledgerRows() {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			build := func() *fl.Env {
				env := codecEnv(t, 77, row.codec, frac)
				if row.shape != nil {
					row.shape(env)
				}
				return env
			}
			for _, tr := range row.trainers {
				want := tr.Run(build())
				if row.lossy {
					if clean := tr.Run(codecEnv(t, 77, row.codec, frac)); want.Comm.UpBytes >= clean.Comm.UpBytes {
						t.Errorf("%s: fault model lost no uplink: %d bytes charged, fault-free run %d",
							tr.Name(), want.Comm.UpBytes, clean.Comm.UpBytes)
					}
				}
				env := build()
				env.Remote = codecFleet(t, 77, row.codec, frac, row.lo, row.hi, 6)
				got := tr.Run(env)
				sameLedger(t, tr.Name()+" over loopback", got, want)
				if row.shape == nil && row.hi-row.lo == 6 &&
					(got.Comm.MeasuredUp != got.Comm.UpBytes || got.Comm.MeasuredDown != got.Comm.DownBytes) {
					t.Errorf("%s, fault-free and fully remote: sockets carried (up %d, down %d), ledger says (up %d, down %d)",
						tr.Name(), got.Comm.MeasuredUp, got.Comm.MeasuredDown, got.Comm.UpBytes, got.Comm.DownBytes)
				}
				if row.tcp {
					sameLedger(t, tr.Name()+" over 3-node TCP", runTCP(t, tr, 3, sparseSpec(77, row.codec, frac), row.shape), want)
				}
			}
		})
	}
}

// TestFedClustWarmupAccounting pins the partial-upload bugfix: the
// warmup's final-layer upload is charged as the full framed message the
// wire carries (envelope + metadata + dense frame of the layer vector),
// never the sparse full-parameter pricing — in-process and over loopback
// alike.
func TestFedClustWarmupAccounting(t *testing.T) {
	env := codecEnv(t, 77, wire.TopK, 0.05)
	numParams := env.NewModel().NumParams()
	layerLen := len(nn.FinalLayerVector(env.NewModel()))
	res := (&core.FedClust{}).Run(env)

	n := int64(len(env.Clients))
	wantUp := n * fl.TrainResponseBytes(wire.Float64, layerLen)
	wantDown := n * fl.TrainRequestBytes(wire.Float64, numParams)
	r0 := res.Comm.PerRound[0]
	if r0.UpBytes != wantUp || r0.DownBytes != wantDown {
		t.Errorf("warmup charged (up %d, down %d), dense frame model says (up %d, down %d)",
			r0.UpBytes, r0.DownBytes, wantUp, wantDown)
	}
	if res.ClusterFormationUpBytes != wantUp {
		t.Errorf("formation cost %d, want the warmup's %d", res.ClusterFormationUpBytes, wantUp)
	}
	// Sanity: the dense layer upload must not be priced like a sparse
	// full-parameter uplink.
	sparseUp := n * fl.TrainResponseBytesSparse(wire.TopK, numParams, wire.TopKCount(numParams, 0.05))
	if r0.UpBytes == sparseUp {
		t.Errorf("warmup upload %d priced under the sparse full-parameter codec", r0.UpBytes)
	}

	menv := codecEnv(t, 77, wire.TopK, 0.05)
	menv.Remote = codecFleet(t, 77, wire.TopK, 0.05, 0, 6, 6)
	meas := (&core.FedClust{}).Run(menv)
	m0 := meas.Comm.PerRound[0]
	if m0.UpBytes != r0.UpBytes || m0.DownBytes != r0.DownBytes {
		t.Errorf("warmup in-process (up %d, down %d) != over loopback (up %d, down %d)",
			r0.UpBytes, r0.DownBytes, m0.UpBytes, m0.DownBytes)
	}
}

// lateFirstReply is a RemoteTrainer whose first exchange with one client
// completes on the wire — both frames move — but is reported lost, as a
// reply landing just past its deadline would be.
type lateFirstReply struct {
	fl.RemoteTrainer
	client int
	failed atomic.Bool
}

func (l *lateFirstReply) Train(req *fl.RemoteRequest, out []float64) (down, up int64, err error) {
	down, up, err = l.RemoteTrainer.Train(req, out)
	if err == nil && req.Client == l.client && l.failed.CompareAndSwap(false, true) {
		err = errors.New("reply past the deadline")
	}
	return down, up, err
}

// TestFedClustWarmupRetryChargedOnce: a client whose one-shot warm-up
// upload is asked for twice is still one exchange in the ledger — the
// paper's formation cost does not grow with retries — and the repeat
// shows only in what the sockets carried.
func TestFedClustWarmupRetryChargedOnce(t *testing.T) {
	want := (&core.FedClust{}).Run(buildGolden(t, 77))
	env := buildGolden(t, 77)
	env.Remote = &lateFirstReply{RemoteTrainer: loopbackFleet(t, 77, wire.Float64, 0, 6, 6), client: 3}
	got := (&core.FedClust{}).Run(env)
	sameLedger(t, "retried warm-up", got, want)
	if got.ClusterFormationUpBytes != want.ClusterFormationUpBytes {
		t.Errorf("formation cost %d with a retried upload, %d without", got.ClusterFormationUpBytes, want.ClusterFormationUpBytes)
	}
	n := int64(len(env.Clients))
	w0 := want.Comm.PerRound[0]
	if extraUp, extraDown := got.Comm.MeasuredUp-got.Comm.UpBytes, got.Comm.MeasuredDown-got.Comm.DownBytes; extraUp != w0.UpBytes/n || extraDown != w0.DownBytes/n {
		t.Errorf("sockets carried (up %d, down %d) beyond the ledger, want the one repeated warm-up exchange (up %d, down %d)",
			extraUp, extraDown, w0.UpBytes/n, w0.DownBytes/n)
	}
}

// TestFedClustWarmupCodecFaithful: the one-shot warm-up is the same visit
// wherever a client trains — under every codec the features collected
// in-process equal, element for element, those collected through a
// loopback fleet (both load the narrowed init and report the narrowed
// layer; sparse codecs travel dense Float64 here, so nothing narrows).
func TestFedClustWarmupCodecFaithful(t *testing.T) {
	for _, c := range allCodecs {
		env := codecEnv(t, 77, c, 0.05)
		init := nn.FlattenParams(env.NewModel())
		local := core.CollectPartialWeights(env, core.Config{}, init)
		env.Remote = codecFleet(t, 77, c, 0.05, 0, 6, 6)
		remote := core.CollectPartialWeights(env, core.Config{}, init)
		diff := 0
		for i := range local {
			for j := range local[i] {
				if local[i][j] != remote[i][j] {
					diff++
				}
			}
		}
		if diff != 0 {
			t.Errorf("%s: %d of %d feature elements differ between the in-process and the loopback warm-up",
				c, diff, len(local)*len(local[0]))
		}
	}
}

// sparseSpec is goldenSpec with the TopK selection riding the handshake,
// so joining nodes build sparse-enabled service replicas.
func sparseSpec(seed uint64, c wire.Codec, frac float64) *transport.Spec {
	spec := goldenSpec(seed)
	spec.Codec = c.String()
	spec.TopKFrac = frac
	return spec
}

// TestTCPThreeNodeSparseEquivalence: a TopK run across three localhost
// nodes — each holding its own error-feedback residuals — is
// bit-identical to the in-process sparse path, and charges the same
// bytes.
func TestTCPThreeNodeSparseEquivalence(t *testing.T) {
	const frac = 0.05
	for _, mk := range []struct {
		name    string
		trainer func() fl.Trainer
	}{
		{"FedAvg", func() fl.Trainer { return methods.FedAvg{} }},
		{"FedClust", func() fl.Trainer { return &core.FedClust{} }},
	} {
		res := runTCP(t, mk.trainer(), 3, sparseSpec(77, wire.TopK, frac), nil)
		sameLedger(t, mk.name+" over 3-node sparse TCP", res, mk.trainer().Run(codecEnv(t, 77, wire.TopK, frac)))
	}
}

// TestSparseLoopbackMixedOwnership: half the clients compress through
// the engine's own accumulator, half through a node-held one — the
// split must not move a bit relative to the all-local run, nor a byte
// of its ledger.
func TestSparseLoopbackMixedOwnership(t *testing.T) {
	for _, c := range []wire.Codec{wire.TopK, wire.TopKQuant8} {
		want := methods.FedAvg{}.Run(codecEnv(t, 77, c, 0.05))
		env := codecEnv(t, 77, c, 0.05)
		env.Remote = codecFleet(t, 77, c, 0.05, 3, 6, 6) // clients 3..5 remote
		got := methods.FedAvg{}.Run(env)
		sameLedger(t, c.String()+" mixed local/remote", got, want)
	}
}

// TestLoopbackRejectsSparseMismatch: wiring a sparse codec to a dense
// service (or the reverse) is a construction bug and must panic before
// any byte is mispriced.
func TestLoopbackRejectsSparseMismatch(t *testing.T) {
	dense := transport.NewService(buildGolden(t, 77))
	sparse := transport.NewService(codecEnv(t, 77, wire.TopK, 0.05))
	for name, build := range map[string]func(){
		"sparse codec on dense service": func() { transport.NewLoopback(dense, wire.TopK) },
		"dense codec on sparse service": func() { transport.NewLoopback(sparse, wire.Float64) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewLoopback did not panic", name)
				}
			}()
			build()
		}()
	}
}
