package transport_test

// Sparse codecs over the transport: the estimate == measured contract
// (an in-process run's priced bytes equal a loopback run's measured
// bytes, byte for byte, under every codec), FedClust's dense warmup
// accounting, and the 3-node TCP path carrying TopK overlays.

import (
	"testing"
	"time"

	"fedclust/internal/core"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/nn"
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

// TestCommEstimateMatchesLoopbackMeasured is the honest-bytes
// regression: for every codec, an in-process run's scalar-count
// estimates (CommStats.Upload/Download under the env's pricing) must
// equal a loopback run's measured framed bytes exactly — and the
// learning outcomes must be bit-identical too, since both paths apply
// the same codec arithmetic to the same visits. FedAvg exercises the
// plain round loop; FedClust adds the one-shot warmup exchange with its
// dense partial upload.
func TestCommEstimateMatchesLoopbackMeasured(t *testing.T) {
	const frac = 0.05
	for _, c := range allCodecs {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			for _, mk := range []struct {
				name    string
				trainer func() fl.Trainer
			}{
				{"FedAvg", func() fl.Trainer { return methods.FedAvg{} }},
				{"FedClust", func() fl.Trainer { return &core.FedClust{} }},
			} {
				est := mk.trainer().Run(codecEnv(t, 77, c, frac))
				menv := codecEnv(t, 77, c, frac)
				menv.Remote = codecFleet(t, 77, c, frac, 0, 6, 6)
				meas := mk.trainer().Run(menv)
				if est.Comm.UpBytes != meas.Comm.UpBytes || est.Comm.DownBytes != meas.Comm.DownBytes {
					t.Errorf("%s/%s: estimate (up %d, down %d) != loopback measured (up %d, down %d)",
						mk.name, c, est.Comm.UpBytes, est.Comm.DownBytes,
						meas.Comm.UpBytes, meas.Comm.DownBytes)
				}
				if got, want := learningFingerprint(meas), learningFingerprint(est); got != want {
					t.Errorf("%s/%s: loopback learning diverged from in-process\n got: %s\nwant: %s",
						mk.name, c, got, want)
				}
				if meas.Comm.MeasuredUp != meas.Comm.UpBytes || meas.Comm.MeasuredDown != meas.Comm.DownBytes {
					t.Errorf("%s/%s: fully-remote run reports estimate leakage (measured up %d of %d, down %d of %d)",
						mk.name, c, meas.Comm.MeasuredUp, meas.Comm.UpBytes,
						meas.Comm.MeasuredDown, meas.Comm.DownBytes)
				}
			}
		})
	}
}

// TestFedClustWarmupAccounting pins the partial-upload bugfix: the
// warmup's final-layer upload is charged as the full framed message the
// wire carries (envelope + metadata + dense frame of the layer vector),
// never the sparse full-parameter pricing — and the in-process charge
// equals the loopback-measured round-0 traffic exactly.
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
		t.Errorf("warmup estimate (up %d, down %d) != loopback measured (up %d, down %d)",
			r0.UpBytes, r0.DownBytes, m0.UpBytes, m0.DownBytes)
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
// bit-identical to the in-process sparse path, and its measured traffic
// equals both the loopback measurement and the in-process estimate.
func TestTCPThreeNodeSparseEquivalence(t *testing.T) {
	const frac = 0.05
	for _, mk := range []struct {
		name    string
		trainer func() fl.Trainer
	}{
		{"FedAvg", func() fl.Trainer { return methods.FedAvg{} }},
		{"FedClust", func() fl.Trainer { return &core.FedClust{} }},
	} {
		coord, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		specBytes, err := sparseSpec(77, wire.TopK, frac).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		wait := startNodes(t, coord.Addr(), 3)
		nodes, err := coord.AcceptNodes(3, 6, specBytes, wire.TopK, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		env := codecEnv(t, 77, wire.TopK, frac)
		fleet := transport.FleetOf(len(env.Clients), nodes)
		env.Remote = fleet
		res := mk.trainer().Run(env)
		if err := fleet.Close(); err != nil {
			t.Errorf("fleet close: %v", err)
		}
		wait()
		coord.Close()

		ref := mk.trainer().Run(codecEnv(t, 77, wire.TopK, frac))
		if got, want := learningFingerprint(res), learningFingerprint(ref); got != want {
			t.Errorf("%s over 3-node sparse TCP drifted from in-process\n got: %s\nwant: %s",
				mk.name, got, want)
		}
		if res.Comm.UpBytes != ref.Comm.UpBytes || res.Comm.DownBytes != ref.Comm.DownBytes {
			t.Errorf("%s: TCP measured (up %d, down %d) != in-process estimate (up %d, down %d)",
				mk.name, res.Comm.UpBytes, res.Comm.DownBytes, ref.Comm.UpBytes, ref.Comm.DownBytes)
		}
	}
}

// TestSparseLoopbackMixedOwnership: half the clients compress through
// the engine's own accumulator, half through a node-held one — the
// split must not move a bit relative to the all-local run, and the
// totals still equal the pure estimate (both sides price identically).
func TestSparseLoopbackMixedOwnership(t *testing.T) {
	for _, c := range []wire.Codec{wire.TopK, wire.TopKQuant8} {
		want := methods.FedAvg{}.Run(codecEnv(t, 77, c, 0.05))
		env := codecEnv(t, 77, c, 0.05)
		env.Remote = codecFleet(t, 77, c, 0.05, 3, 6, 6) // clients 3..5 remote
		got := methods.FedAvg{}.Run(env)
		if g, w := learningFingerprint(got), learningFingerprint(want); g != w {
			t.Errorf("%s: mixed local/remote sparse run drifted\n got: %s\nwant: %s", c, g, w)
		}
		if got.Comm.UpBytes != want.Comm.UpBytes || got.Comm.DownBytes != want.Comm.DownBytes {
			t.Errorf("%s: mixed run traffic (up %d, down %d) != estimate (up %d, down %d)",
				c, got.Comm.UpBytes, got.Comm.DownBytes, want.Comm.UpBytes, want.Comm.DownBytes)
		}
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
