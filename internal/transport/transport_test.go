package transport_test

// Golden equivalence for the networked path: a federated run whose
// clients train behind a Transport must be bit-identical — per-client
// accuracies, evaluation history, final cluster assignment — to the
// in-process engine path, which is itself pinned to the seed
// implementation's fingerprints (internal/engine/equivalence_test.go).
// The learning fingerprints below are those PR 1 constants with the
// communication fields dropped (PR 1 charged a flat 8 bytes/param); the
// bytes are pinned separately — against the exact frame-size formulas
// here, and in-process vs loopback vs TCP by the byte-ledger table in
// sparse_transport_test.go.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"

	"fedclust/internal/core"
	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/nn"
	"fedclust/internal/scenario"
	"fedclust/internal/transport"
	"fedclust/internal/wire"
)

// goldenSpec describes the fixed equivalence workload of the engine's
// golden tests (6 clients in two label groups, MLP(64,20,4), 6 rounds,
// eval every 2) as a transport Spec, so the same environment replica a
// joining node would build is the one these tests train on.
func goldenSpec(seed uint64) *transport.Spec {
	return &transport.Spec{
		Dataset: data.SynthConfig{
			Name: "golden4", C: 1, H: 8, W: 8, Classes: 4,
			TrainPerClass: 40, TestPerClass: 16,
			ClassSep: 0.85, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: seed,
		},
		Groups:    [][]int{{0, 1}, {2, 3}},
		PerGroup:  []int{3, 3},
		Hidden:    []int{20},
		Seed:      seed,
		Rounds:    6,
		EvalEvery: 2,
		Local:     fl.LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9},
	}
}

// buildGolden builds the golden environment (Workers pinned to 3 like
// the engine suite; results are worker-count invariant regardless).
func buildGolden(t testing.TB, seed uint64) *fl.Env {
	t.Helper()
	env, err := goldenSpec(seed).Build()
	if err != nil {
		t.Fatal(err)
	}
	env.Workers = 3
	return env
}

// learningFingerprint reduces a result to a bit-exact signature of its
// learning outcomes (everything except communication volume).
func learningFingerprint(res *fl.Result) string {
	h := fnv.New64a()
	w := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	for _, a := range res.PerClientAcc {
		w(math.Float64bits(a))
	}
	for _, m := range res.History {
		w(uint64(m.Round))
		w(math.Float64bits(m.MeanAcc))
		w(math.Float64bits(m.MeanLoss))
	}
	return fmt.Sprintf("acc=%016x loss=%016x clusters=%v h=%016x",
		math.Float64bits(res.FinalAcc), math.Float64bits(res.FinalLoss),
		res.Clusters, h.Sum64())
}

// goldenLearning pins the learning outcomes to the PR 1 seed
// fingerprints (comm fields dropped; see the package comment).
var goldenLearning = []struct {
	name    string
	trainer func() fl.Trainer
	want    string
}{
	{"FedAvg", func() fl.Trainer { return methods.FedAvg{} },
		"acc=3fecfa4fa4fa4fa4 loss=3fcaf81f04cee325 clusters=[] h=8a7b5f0b9a50518a"},
	{"FedProx", func() fl.Trainer { return methods.FedProx{Mu: 0.1} },
		"acc=3fecfa4fa4fa4fa4 loss=3fcb7191c1d88124 clusters=[] h=fee58494db1a1633"},
	{"FedClust", func() fl.Trainer { return &core.FedClust{} },
		"acc=3fef05b05b05b05b loss=3fb5c43da15c46f3 clusters=[0 0 0 1 1 1] h=40c8a6da5fbfc6a7"},
}

// loopbackFleet stands up a node-side Service over its own environment
// replica and routes clients [lo, hi) through a loopback transport.
func loopbackFleet(t testing.TB, seed uint64, codec wire.Codec, lo, hi, n int) *transport.Fleet {
	t.Helper()
	nodeEnv := buildGolden(t, seed)
	fleet := transport.NewFleet(n)
	fleet.Assign(transport.NewLoopback(transport.NewService(nodeEnv), codec), lo, hi)
	return fleet
}

// TestLoopbackGoldenEquivalence: every trainer on the loopback transport
// (all six clients remote, lossless codec) reproduces the pinned
// learning fingerprints bit for bit.
func TestLoopbackGoldenEquivalence(t *testing.T) {
	for _, c := range goldenLearning {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			env := buildGolden(t, 77)
			env.Remote = loopbackFleet(t, 77, wire.Float64, 0, 6, 6)
			res := c.trainer().Run(env)
			if got := learningFingerprint(res); got != c.want {
				t.Errorf("loopback run drifted from the in-process path\n got: %s\nwant: %s", got, c.want)
			}
		})
	}
}

// TestMixedLocalRemoteEquivalence: a round driving half its clients
// in-process and half over the transport is still bit-identical — one
// engine, mixed execution.
func TestMixedLocalRemoteEquivalence(t *testing.T) {
	for _, c := range goldenLearning {
		env := buildGolden(t, 77)
		env.Remote = loopbackFleet(t, 77, wire.Float64, 2, 5, 6) // clients 2..4 remote
		res := c.trainer().Run(env)
		if got := learningFingerprint(res); got != c.want {
			t.Errorf("%s: mixed local/remote run drifted\n got: %s\nwant: %s", c.name, got, c.want)
		}
	}
}

// TestLoopbackScenarioEquivalence: scenario outcomes (stragglers,
// dropouts) must shape remote rounds exactly as in-process ones — the
// partial-epoch budget rides the wire in the request config.
func TestLoopbackScenarioEquivalence(t *testing.T) {
	model := scenario.New(scenario.Config{
		StragglerFrac: 0.4, DropoutRate: 0.15, Deadline: 1.2, Jitter: 0.2,
	}, 7, 6)
	baseline := buildGolden(t, 77)
	baseline.Participation.Scenario = model
	want := learningFingerprint(methods.FedAvg{}.Run(baseline))

	remote := buildGolden(t, 77)
	remote.Participation.Scenario = model
	remote.Remote = loopbackFleet(t, 77, wire.Float64, 0, 6, 6)
	got := learningFingerprint(methods.FedAvg{}.Run(remote))
	if got != want {
		t.Errorf("scenario round over loopback drifted\n got: %s\nwant: %s", got, want)
	}
}

// TestLoopbackCommAccounting: the ledger of a fault-free remote run is
// exactly requests down, updates up, per the frame-size formulas.
func TestLoopbackCommAccounting(t *testing.T) {
	env := buildGolden(t, 77)
	env.Remote = loopbackFleet(t, 77, wire.Float64, 0, 6, 6)
	res := methods.FedAvg{}.Run(env)
	numParams := transport.NewService(buildGolden(t, 77)).NumParams()
	visits := int64(env.Rounds * len(env.Clients))
	wantDown := visits * fl.TrainRequestBytes(wire.Float64, numParams)
	wantUp := visits * fl.TrainResponseBytes(wire.Float64, numParams)
	if res.Comm.DownBytes != wantDown || res.Comm.UpBytes != wantUp {
		t.Errorf("ledger (down %d, up %d) != frame-size model (down %d, up %d)",
			res.Comm.DownBytes, res.Comm.UpBytes, wantDown, wantUp)
	}
	// CommPricing's closed form and the transport's frame sizes are one
	// formula.
	if priced := visits * (fl.CommPricing{}).UploadBytesFor(numParams); res.Comm.UpBytes != priced {
		t.Errorf("uplink %d != CommPricing's %d", res.Comm.UpBytes, priced)
	}
}

// TestLoopbackLossyCodec: a lossy loopback run still completes and
// accounts the narrow frames (quant8 ≈ 1B/param), shrinking the ledger
// accordingly.
func TestLoopbackLossyCodec(t *testing.T) {
	env := codecEnv(t, 77, wire.Quant8, 0)
	env.Rounds = 2
	env.Remote = codecFleet(t, 77, wire.Quant8, 0, 0, 6, 6)
	res := methods.FedAvg{}.Run(env)
	if res.FinalAcc <= 0 || math.IsNaN(res.FinalLoss) {
		t.Fatalf("lossy-codec run degenerate: acc=%v loss=%v", res.FinalAcc, res.FinalLoss)
	}
	numParams := transport.NewService(buildGolden(t, 77)).NumParams()
	visits := int64(env.Rounds * len(env.Clients))
	wantUp := visits * fl.TrainResponseBytes(wire.Quant8, numParams)
	if res.Comm.UpBytes != wantUp {
		t.Errorf("quant8 uplink %d, want %d", res.Comm.UpBytes, wantUp)
	}
	f64Up := visits * fl.TrainResponseBytes(wire.Float64, numParams)
	if res.Comm.UpBytes*7 >= f64Up {
		t.Errorf("quant8 uplink %d not ≥7× smaller than float64 %d", res.Comm.UpBytes, f64Up)
	}
}

// TestFleetRouting: ownership and misrouting guards.
func TestFleetRouting(t *testing.T) {
	fleet := loopbackFleet(t, 77, wire.Float64, 1, 3, 6)
	for i := 0; i < 6; i++ {
		if want := i >= 1 && i < 3; fleet.Owns(i) != want {
			t.Errorf("Owns(%d) = %v, want %v", i, fleet.Owns(i), want)
		}
	}
	if _, _, err := fleet.Train(&fl.RemoteRequest{Client: 5}, nil); err == nil {
		t.Error("training an unowned client did not error")
	}
	if err := fleet.Close(); err != nil {
		t.Error(err)
	}
}

// TestPartitionClients: contiguous cover, near-equal sizes.
func TestPartitionClients(t *testing.T) {
	for _, c := range []struct{ n, k int }{{6, 3}, {7, 3}, {10, 4}, {5, 5}, {9, 1}} {
		ranges := transport.PartitionClients(c.n, c.k)
		if len(ranges) != c.k {
			t.Fatalf("n=%d k=%d: %d ranges", c.n, c.k, len(ranges))
		}
		next, min, max := 0, c.n, 0
		for _, r := range ranges {
			if r[0] != next {
				t.Fatalf("n=%d k=%d: gap before %v", c.n, c.k, r)
			}
			size := r[1] - r[0]
			if size < min {
				min = size
			}
			if size > max {
				max = size
			}
			next = r[1]
		}
		if next != c.n || max-min > 1 {
			t.Fatalf("n=%d k=%d: ranges %v", c.n, c.k, ranges)
		}
	}
}

// TestSpecRoundTrip: the handshake payload reconstructs an identical
// environment (same w₀, same client splits).
func TestSpecRoundTrip(t *testing.T) {
	spec := goldenSpec(77)
	b, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := transport.ParseSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	env1, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	env2, err := spec2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(env1.Clients) != len(env2.Clients) {
		t.Fatalf("client counts differ: %d vs %d", len(env1.Clients), len(env2.Clients))
	}
	w1 := env1.NewModel()
	w2 := env2.NewModel()
	if w1.NumParams() != w2.NumParams() {
		t.Fatalf("model sizes differ")
	}
	for i, c := range env1.Clients {
		if c.Train.Len() != env2.Clients[i].Train.Len() || c.Test.Len() != env2.Clients[i].Test.Len() {
			t.Fatalf("client %d splits differ", i)
		}
	}
}

// TestSpecBuildRejectsMalformed: a spec arrives off the wire, so Build
// must return errors — never panic, never allocate from hostile sizes.
func TestSpecBuildRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*transport.Spec)
	}{
		{"zero rounds", func(s *transport.Spec) { s.Rounds = 0 }},
		{"zero train per class", func(s *transport.Spec) { s.Dataset.TrainPerClass = 0 }},
		{"absurd train per class", func(s *transport.Spec) { s.Dataset.TrainPerClass = 1 << 40 }},
		{"absurd geometry", func(s *transport.Spec) { s.Dataset.H = 1 << 20; s.Dataset.W = 1 << 20 }},
		{"no groups", func(s *transport.Spec) { s.Groups = nil; s.PerGroup = nil }},
		{"group/count mismatch", func(s *transport.Spec) { s.PerGroup = s.PerGroup[:1] }},
		{"label outside classes", func(s *transport.Spec) { s.Groups[0][0] = 99 }},
		{"empty group", func(s *transport.Spec) { s.Groups[0] = nil }},
		{"zero-client group", func(s *transport.Spec) { s.PerGroup[0] = 0 }},
		{"bad hidden width", func(s *transport.Spec) { s.Hidden = []int{-3} }},
		{"bad local config", func(s *transport.Spec) { s.Local.LR = 0 }},
		{"momentum past one", func(s *transport.Spec) { s.Local.Momentum = 1.5 }},
		{"negative weight decay", func(s *transport.Spec) { s.Local.WeightDecay = -1 }},
		{"one class", func(s *transport.Spec) { s.Dataset.Classes = 1 }},
		// Each of these passes every per-field ceiling and breaks one
		// product ceiling: a size the substrate would allocate.
		{"examples × pixels", func(s *transport.Spec) { s.Dataset.H, s.Dataset.W, s.Dataset.TrainPerClass = 64, 64, 1<<14 }},
		{"classes × pixels", func(s *transport.Spec) {
			s.Dataset.H, s.Dataset.W, s.Dataset.Classes, s.Dataset.TrainPerClass, s.Dataset.TestPerClass = 32, 32, 1<<12, 1, 1
		}},
		{"smoothing passes", func(s *transport.Spec) { s.Dataset.Smooth = 1 << 20 }},
		{"MLP parameters", func(s *transport.Spec) { s.Hidden = []int{1 << 20} }},
	}
	for _, c := range cases {
		sp := goldenSpec(77)
		c.mutate(sp)
		env, err := sp.Build()
		if err == nil || env != nil {
			t.Errorf("%s: Build accepted the spec (err=%v)", c.name, err)
		}
	}

	// Each size ceiling on its limit and one past it: at the limit the
	// spec passes check (held to check alone, so no test generates a
	// dataset of the limit's size), and one past it Build refuses it with
	// that ceiling's error, so a ceiling loosened by one fails a row.
	// The exception is the prototypes' ceiling: 2²¹+1 = 9·43·5419, and
	// the prime 5419 exceeds every per-field ceiling a factor could sit
	// under, so no spec reaches it; its row is 2²¹+6 = 2 · 919·1141, the
	// first product past the limit a spec can describe.
	geometry := func(s *transport.Spec, c, h, w, classes, train, test int) {
		s.Dataset.C, s.Dataset.H, s.Dataset.W = c, h, w
		s.Dataset.Classes, s.Dataset.TrainPerClass, s.Dataset.TestPerClass = classes, train, test
	}
	ones := func(n int) []int {
		h := make([]int, n)
		for i := range h {
			h[i] = 1
		}
		return h
	}
	ceilings := []struct {
		name     string
		at, over func(*transport.Spec)
		want     string // in the over row's error
	}{
		{"examples", // 16·2²⁰ = 2²⁴; 97·257·673 = 2²⁴+1
			func(s *transport.Spec) { geometry(s, 1, 1, 1, 16, 1<<20-1, 1) },
			func(s *transport.Spec) { geometry(s, 1, 1, 1, 97, 257*673-1, 1) },
			"examples, limit"},
		{"examples × pixels", // 8·2²⁰ examples of 4 pixels = 2²⁵; 11·251·4051 of 3 = 2²⁵+1
			func(s *transport.Spec) { geometry(s, 1, 2, 2, 8, 1<<20-1, 1) },
			func(s *transport.Spec) { geometry(s, 1, 1, 3, 11, 251*4051-1, 1) },
			"pixels, limit"},
		{"classes × pixels", // 4096 prototypes of 512 pixels = 2²¹; 2 of 919·1141 = 2²¹+6
			func(s *transport.Spec) { geometry(s, 2, 16, 16, 4096, 1, 1) },
			func(s *transport.Spec) {
				geometry(s, 1, 919, 1141, 2, 1, 1)
				s.Groups, s.PerGroup = [][]int{{0}, {1}}, []int{3, 3}
			},
			"class prototypes"},
		{"smoothing passes",
			func(s *transport.Spec) { s.Dataset.Smooth = 64 },
			func(s *transport.Spec) { s.Dataset.Smooth = 65 },
			"smoothing passes"},
		{"clients",
			func(s *transport.Spec) { s.PerGroup = []int{1 << 15, 1 << 15} },
			func(s *transport.Spec) { s.PerGroup = []int{1 << 15, 1<<15 + 1} },
			"clients, limit"},
		{"hidden layers",
			func(s *transport.Spec) { s.Hidden = ones(64) },
			func(s *transport.Spec) { s.Hidden = ones(65) },
			"hidden layers, limit"},
		{"MLP parameters", // 65·36470 + 36471·50 + 51·4 = 2²²; 65·14817 + 14818·218 + 219·4 = 2²²+1
			func(s *transport.Spec) { s.Hidden = []int{36470, 50} },
			func(s *transport.Spec) { s.Hidden = []int{14817, 218} },
			"parameters, limit"},
	}
	for _, c := range ceilings {
		at := goldenSpec(77)
		c.at(at)
		if err := at.CheckForTest(); err != nil {
			t.Errorf("%s at the limit: check refused the spec: %v", c.name, err)
		}
		over := goldenSpec(77)
		c.over(over)
		// check first: a spec it wrongly passes would make Build generate
		// a dataset past the limit before the row could fail.
		if err := over.CheckForTest(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s past the limit: check gave err=%v, want an error naming %q", c.name, err, c.want)
			continue
		}
		env, err := over.Build()
		if err == nil || env != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s past the limit: Build gave err=%v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// exact runs work orders on a service in-process, exactly: the Float64
// loopback applies no codec in either direction.
func exact(svc *transport.Service) func(req *fl.RemoteRequest, out []float64) error {
	lb := transport.NewLoopback(svc, wire.Float64)
	return func(req *fl.RemoteRequest, out []float64) error {
		_, _, err := lb.Train(req, out)
		return err
	}
}

// TestServiceRejectsBadRequests: every malformed work order is an error,
// never a panic.
func TestServiceRejectsBadRequests(t *testing.T) {
	env := buildGolden(t, 77)
	svc := transport.NewService(env)
	execute := exact(svc)
	good := fl.RemoteRequest{
		Client: 0, Round: 0, Cluster: -1, Layer: fl.FullParams,
		Cfg:   fl.LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.1},
		Start: make([]float64, svc.NumParams()),
	}
	out := make([]float64, svc.NumParams())
	if err := execute(&good, out); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*fl.RemoteRequest)
		outLen int
	}{
		{"client out of range", func(r *fl.RemoteRequest) { r.Client = 99 }, svc.NumParams()},
		{"negative client", func(r *fl.RemoteRequest) { r.Client = -1 }, svc.NumParams()},
		{"zero epochs", func(r *fl.RemoteRequest) { r.Cfg.Epochs = 0 }, svc.NumParams()},
		{"bad lr", func(r *fl.RemoteRequest) { r.Cfg.LR = math.NaN() }, svc.NumParams()},
		// Each of these reached the optimizer, which panicked on it.
		{"momentum past one", func(r *fl.RemoteRequest) { r.Cfg.Momentum = 1.5 }, svc.NumParams()},
		{"negative momentum", func(r *fl.RemoteRequest) { r.Cfg.Momentum = -0.5 }, svc.NumParams()},
		{"negative weight decay", func(r *fl.RemoteRequest) { r.Cfg.WeightDecay = -1 }, svc.NumParams()},
		{"short start", func(r *fl.RemoteRequest) { r.Start = r.Start[:5] }, svc.NumParams()},
		{"bad layer", func(r *fl.RemoteRequest) { r.Layer = 7 }, svc.NumParams()},
		// Only the final layer ever travels partial: a weight-layer index
		// is refused even when out is sized for that layer.
		{"weight-layer index", func(r *fl.RemoteRequest) { r.Layer = 0 }, len(nn.LayerParamVector(env.NewModel(), 0))},
		{"wrong out len", func(r *fl.RemoteRequest) {}, 3},
	}
	for _, c := range cases {
		req := good
		c.mutate(&req)
		if err := execute(&req, make([]float64, c.outLen)); err == nil {
			t.Errorf("%s: not rejected", c.name)
		}
	}
}

// TestTrainMessageSizes: the size formulas are exact for the frames the
// sender actually builds.
// TestServeSameClientConcurrent: two orders for one client in flight at
// once — what a timed-out visit plus its re-request look like on a node —
// share nothing mutable. Every result equals the serial visit of the
// same (client, round) bit for bit, in both dtypes. (Before lanes owned
// their batchers the two visits shared the dataset's cached one and
// Batcher.Next indexed out of range within milliseconds.)
func TestServeSameClientConcurrent(t *testing.T) {
	for _, dtype := range []fl.DType{fl.Float64, fl.Float32} {
		env := buildGolden(t, 31)
		env.DType = dtype
		execute := exact(transport.NewService(env))
		start := nn.FlattenParams(env.NewModel())
		const rounds = 50
		order := func(round int) *fl.RemoteRequest {
			return &fl.RemoteRequest{Client: 0, Round: round, Cluster: -1, Layer: fl.FullParams, Cfg: env.Local, Start: start}
		}
		want := make([][]float64, rounds)
		for r := range want {
			want[r] = make([]float64, len(start))
			if err := execute(order(r), want[r]); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]float64, len(start))
				for r := 0; r < rounds; r++ {
					if err := execute(order(r), out); err != nil {
						t.Error(err)
						return
					}
					for i := range out {
						if out[i] != want[r][i] {
							t.Errorf("%v round %d: concurrent visit differs from the serial one at %d", dtype, r, i)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestTrainMessageSizes(t *testing.T) {
	for _, codec := range []wire.Codec{wire.Float64, wire.Float32, wire.Quant8} {
		for _, n := range []int{0, 1, 37, 1384} {
			req := &fl.RemoteRequest{Start: make([]float64, n), Cfg: fl.LocalConfig{Epochs: 1, BatchSize: 1, LR: 0.1}}
			frame := appendTrainFrame(nil, 1, req, codec)
			if want := fl.TrainRequestBytes(codec, n); int64(len(frame)) != want {
				t.Errorf("%s n=%d: request frame %d bytes, formula %d",
					codec, n, len(frame), want)
			}
		}
	}
}

// appendTrainFrame builds a full train request frame through the
// exported test hook.
func appendTrainFrame(dst []byte, id uint32, req *fl.RemoteRequest, codec wire.Codec) []byte {
	return transport.AppendTrainFrameForTest(dst, id, req, codec)
}
