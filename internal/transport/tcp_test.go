package transport_test

// Localhost TCP smoke: real sockets, three node "processes" (goroutines
// with fully independent environment replicas built from the handshake
// spec — they share no memory with the coordinator's env), full
// handshake, multiplexed concurrent requests, measured bytes. Plus the
// failure paths: deadlines, mid-stream disconnects, garbage on the wire.

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"fedclust/internal/core"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/transport"
	"fedclust/internal/wire"
)

// startNodes launches n joining nodes against the coordinator address.
// Each builds its env replica from the welcome spec — the real node code
// path — and serves until the coordinator says Bye. Returns a join
// function that propagates node failures.
func startNodes(t *testing.T, addr string, n int) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, _, _, specBytes, err := transport.Join(addr, "node")
			if err != nil {
				errs <- err
				return
			}
			spec, err := transport.ParseSpec(specBytes)
			if err != nil {
				errs <- err
				return
			}
			env, err := spec.Build()
			if err != nil {
				errs <- err
				return
			}
			if err := transport.NewService(env).ServeConn(conn); err != nil {
				errs <- err
			}
		}(i)
	}
	return func() {
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("node failed: %v", err)
		}
	}
}

// runTCP runs one trainer over a fresh coordinator + k joined nodes, each
// building its replica from spec, and returns the result. shape (may be
// nil) adjusts the coordinator's environment — participation, scenario,
// aggregator — before the run.
func runTCP(t *testing.T, trainer fl.Trainer, k int, spec *transport.Spec, shape func(*fl.Env)) *fl.Result {
	t.Helper()
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	specBytes, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	env, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	env.Workers = 3
	if shape != nil {
		shape(env)
	}
	wait := startNodes(t, coord.Addr(), k)
	nodes, err := coord.AcceptNodes(k, len(env.Clients), specBytes, env.Codec, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fleet := transport.FleetOf(len(env.Clients), nodes)
	env.Remote = fleet
	res := trainer.Run(env)
	if err := fleet.Close(); err != nil {
		t.Errorf("fleet close: %v", err)
	}
	wait()
	return res
}

// TestTCPThreeNodeGoldenEquivalence is the acceptance smoke: FedAvg and
// FedClust across three localhost nodes are bit-identical to the
// in-process path (pinned learning fingerprints), charge the loopback
// run's ledger, and their sockets carried exactly that — down to the
// byte.
func TestTCPThreeNodeGoldenEquivalence(t *testing.T) {
	for _, c := range []struct {
		name    string
		trainer func() fl.Trainer
		want    string
	}{
		{"FedAvg", func() fl.Trainer { return methods.FedAvg{} }, goldenLearning[0].want},
		{"FedClust", func() fl.Trainer { return &core.FedClust{} }, goldenLearning[2].want},
	} {
		res := runTCP(t, c.trainer(), 3, goldenSpec(77), nil)
		if got := learningFingerprint(res); got != c.want {
			t.Errorf("%s over 3-node TCP drifted\n got: %s\nwant: %s", c.name, got, c.want)
		}
		// Loopback reference run with identical ownership topology.
		env := buildGolden(t, 77)
		env.Remote = loopbackFleet(t, 77, wire.Float64, 0, 6, 6)
		ref := c.trainer().Run(env)
		if res.Comm.UpBytes != ref.Comm.UpBytes || res.Comm.DownBytes != ref.Comm.DownBytes {
			t.Errorf("%s: TCP ledger (up %d, down %d) != loopback (up %d, down %d)",
				c.name, res.Comm.UpBytes, res.Comm.DownBytes, ref.Comm.UpBytes, ref.Comm.DownBytes)
		}
		if res.Comm.MeasuredUp != res.Comm.UpBytes || res.Comm.MeasuredDown != res.Comm.DownBytes {
			t.Errorf("%s: the sockets carried (up %d, down %d), the ledger says (up %d, down %d)",
				c.name, res.Comm.MeasuredUp, res.Comm.MeasuredDown, res.Comm.UpBytes, res.Comm.DownBytes)
		}
	}
}

// fakeNode joins a coordinator and then misbehaves per the handler:
// handler receives the post-handshake connection and does whatever it
// wants with it.
func fakeNode(t *testing.T, addr string, handler func(net.Conn)) {
	t.Helper()
	conn, _, _, _, err := transport.Join(addr, "fake")
	if err != nil {
		t.Errorf("fake node join: %v", err)
		return
	}
	handler(conn)
}

// TestTCPTimeout: a node that accepts work but never answers trips the
// per-request deadline; the engine treats its clients as dropouts and
// the round completes, with downlink bytes recorded and zero uplink.
func TestTCPTimeout(t *testing.T) {
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	specBytes, _ := goldenSpec(77).Marshal()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fakeNode(t, coord.Addr(), func(conn net.Conn) {
			defer conn.Close()
			buf := make([]byte, 1<<16)
			for {
				if _, err := conn.Read(buf); err != nil {
					return // swallow requests until the coordinator hangs up
				}
			}
		})
	}()
	nodes, err := coord.AcceptNodes(1, 6, specBytes, wire.Float64, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	env := buildGolden(t, 77)
	env.Rounds = 2
	fleet := transport.FleetOf(6, nodes)
	env.Remote = fleet

	// Direct transport check: the error wraps ErrTimeout.
	req := &fl.RemoteRequest{
		Client: 0, Round: 0, Cluster: -1, Layer: fl.FullParams,
		Cfg:   env.Local,
		Start: make([]float64, 1384),
	}
	if _, _, err := fleet.Train(req, make([]float64, 1384)); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}

	// Engine integration: all clients fail every round; the run still
	// completes (aggregation skipped, server state frozen at w₀).
	res := methods.FedAvg{}.Run(env)
	if res.Comm.UpBytes != 0 {
		t.Errorf("no update ever arrived but uplink recorded %d bytes", res.Comm.UpBytes)
	}
	if res.Comm.DownBytes == 0 {
		t.Errorf("requests were sent but downlink recorded nothing")
	}
	fleet.Close()
	<-done
}

// TestTCPDisconnectMidStream: a node that dies mid-run fails its
// in-flight and future requests; a mixed fleet's surviving clients keep
// training and the run completes.
func TestTCPDisconnectMidStream(t *testing.T) {
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	specBytes, _ := goldenSpec(77).Marshal()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fakeNode(t, coord.Addr(), func(conn net.Conn) {
			// Read one request's length prefix, then vanish mid-frame.
			buf := make([]byte, 4)
			_, _ = conn.Read(buf)
			conn.Close()
		})
	}()
	nodes, err := coord.AcceptNodes(1, 6, specBytes, wire.Float64, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	env := buildGolden(t, 77)
	env.Rounds = 2
	fleet := transport.NewFleet(6)
	fleet.Assign(nodes[0].TCP, 4, 6) // clients 4,5 on the doomed node
	env.Remote = fleet
	res := methods.FedAvg{}.Run(env)
	if res.FinalAcc <= 0 {
		t.Errorf("run with a dead node did not recover: acc=%v", res.FinalAcc)
	}
	fleet.Close()
	<-done
}

// TestAcceptNodesSurvivesStrayConnections: non-protocol traffic hitting
// the coordinator port (port scans, health checks, a browser) is
// dropped without aborting startup — the real nodes still join.
func TestAcceptNodesSurvivesStrayConnections(t *testing.T) {
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	specBytes, _ := goldenSpec(77).Marshal()
	// A stray connection first, so the accept loop meets it before any
	// real node.
	stray, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = stray.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	stray.Close()
	// A hostile length prefix (≈2 GiB) with no body: the handshake's
	// frame cap must reject it without allocating for it.
	bomb, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = bomb.Write([]byte{0xff, 0xff, 0xff, 0x7f})
	bomb.Close()
	wait := startNodes(t, coord.Addr(), 2)
	nodes, err := coord.AcceptNodes(2, 6, specBytes, wire.Float64, 10*time.Second)
	if err != nil {
		t.Fatalf("stray connection aborted startup: %v", err)
	}
	if len(nodes) != 2 {
		t.Fatalf("joined %d nodes, want 2", len(nodes))
	}
	for _, nd := range nodes {
		nd.Close()
	}
	wait()
}

// TestTCPTimeoutDeliveryRace hammers the boundary between delivery and
// abandonment: with the deadline set at roughly one visit's service
// time, many updates arrive within microseconds of their timer firing.
// Whichever side wins, the reused out buffer must never be written by a
// late decode after Train has returned — the claim CAS guarantees it,
// and the race detector enforces it here (the caller immediately
// rewrites the buffer after every timeout, exactly like the engine's
// arena slots across rounds).
func TestTCPTimeoutDeliveryRace(t *testing.T) {
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	specBytes, _ := goldenSpec(77).Marshal()
	wait := startNodes(t, coord.Addr(), 1)
	nodes, err := coord.AcceptNodes(1, 6, specBytes, wire.Float64, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	env := buildGolden(t, 77)
	svc := transport.NewService(env)
	numParams := svc.NumParams()
	req := &fl.RemoteRequest{
		Cluster: -1, Layer: fl.FullParams,
		Cfg:   fl.LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.1},
		Start: make([]float64, numParams),
	}
	out := make([]float64, numParams) // deliberately reused across visits
	timeouts, ok := 0, 0
	for i := 0; i < 200; i++ {
		req.Client, req.Round = i%6, i
		_, _, err := nodes[0].Train(req, out)
		switch {
		case err == nil:
			ok++
		case errors.Is(err, transport.ErrTimeout):
			timeouts++
		case errors.Is(err, transport.ErrClosed):
			t.Fatalf("connection died mid-stress: %v", err)
		default:
			t.Fatalf("unexpected error: %v", err)
		}
		for j := range out {
			out[j] = 0 // the rewrite a late decode would race with
		}
	}
	t.Logf("%d delivered, %d timed out", ok, timeouts)
	if err := nodes[0].Close(); err != nil {
		t.Error(err)
	}
	wait()
}

// TestServeConnSurvivesGarbage: raw garbage, truncated frames, and
// oversized length prefixes terminate the connection with an error —
// never a panic, never a hang.
func TestServeConnSurvivesGarbage(t *testing.T) {
	env := buildGolden(t, 77)
	svc := transport.NewService(env)
	cases := [][]byte{
		{0xff, 0xff, 0xff, 0xff, 1, 2, 3},                         // absurd length prefix
		{0x00, 0x00, 0x00, 0x00},                                  // zero length
		{5, 0, 0, 0, byte(3), 1, 2},                               // train frame, truncated body
		{1, 0, 0, 0, byte(3)},                                     // train frame, empty body
		{10, 0, 0, 0, 99, 1, 2, 3, 4, 5, 6, 7},                    // unknown type, short body
		append([]byte{80, 0, 0, 0, byte(3)}, make([]byte, 60)...), // valid header, truncated wire frame
	}
	for i, raw := range cases {
		server, client := net.Pipe()
		errCh := make(chan error, 1)
		go func() { errCh <- svc.ServeConn(server) }()
		client.SetDeadline(time.Now().Add(5 * time.Second))
		_, _ = client.Write(raw)
		client.Close()
		select {
		case <-errCh:
			// Returned (error or orderly) — the requirement is no panic
			// and no hang.
		case <-time.After(10 * time.Second):
			t.Fatalf("case %d: ServeConn hung on garbage", i)
		}
	}
}

// TestServeConnAnswersBadRequest: a well-framed but semantically invalid
// work order — a client outside the population, or hyperparameters the
// optimizer refuses — earns an error response, the node's handler does
// not panic, and the connection survives for the next request.
func TestServeConnAnswersBadRequest(t *testing.T) {
	env := buildGolden(t, 77)
	svc := transport.NewService(env)
	server, client := net.Pipe()
	go svc.ServeConn(server)
	defer client.Close()

	tr := transport.NewTCPForTest(client, wire.Float64, 5*time.Second)
	defer tr.Close()
	good := fl.RemoteRequest{
		Client: 2, Round: 0, Cluster: -1, Layer: fl.FullParams,
		Cfg:   fl.LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.1},
		Start: make([]float64, svc.NumParams()),
	}
	for name, mutate := range map[string]func(*fl.RemoteRequest){
		"out-of-range client":   func(r *fl.RemoteRequest) { r.Client = 99 },
		"momentum past one":     func(r *fl.RemoteRequest) { r.Cfg.Momentum = 1.5 },
		"negative momentum":     func(r *fl.RemoteRequest) { r.Cfg.Momentum = -0.5 },
		"negative weight decay": func(r *fl.RemoteRequest) { r.Cfg.WeightDecay = -1 },
	} {
		bad := good
		mutate(&bad)
		if _, up, err := tr.Train(&bad, make([]float64, svc.NumParams())); err == nil {
			t.Fatalf("%s: accepted", name)
		} else if up == 0 {
			t.Errorf("%s: error response bytes not measured", name)
		}
		if _, _, err := tr.Train(&good, make([]float64, svc.NumParams())); err != nil {
			t.Fatalf("connection did not survive a rejected request (%s): %v", name, err)
		}
	}
}
