package transport_test

// Rejoin suite: a node running ServeLoop must survive a coordinator
// crash — disconnect without Bye, re-dial within the window, handshake
// with the restarted coordinator, and serve bit-identical training — and
// must refuse to serve a restarted coordinator whose spec bytes differ
// from the ones it joined under.

import (
	"math"
	"strings"
	"testing"
	"time"

	"fedclust/internal/fl"
	"fedclust/internal/transport"
	"fedclust/internal/wire"
)

// startServeLoop launches one ServeLoop node; the returned channel
// yields its final error.
func startServeLoop(t *testing.T, addr string, window time.Duration) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- transport.ServeLoop(addr, "n1", window, 10*time.Millisecond,
			func(lo, hi int, specBytes []byte) (*transport.Service, error) {
				spec, err := transport.ParseSpec(specBytes)
				if err != nil {
					return nil, err
				}
				env, err := spec.Build()
				if err != nil {
					return nil, err
				}
				return transport.NewService(env), nil
			})
	}()
	return done
}

// trainOnce sends one fixed request through the node and returns the
// resulting parameter vector.
func trainOnce(t *testing.T, nd *transport.Node, numParams int) []float64 {
	t.Helper()
	out := make([]float64, numParams)
	req := &fl.RemoteRequest{
		Client: 0, Round: 0, Cluster: -1, Layer: fl.FullParams,
		Cfg:   goldenSpec(77).Local,
		Start: make([]float64, numParams),
	}
	if _, _, err := nd.Train(req, out); err != nil {
		t.Fatalf("train: %v", err)
	}
	return out
}

func TestServeLoopRejoinsAfterCoordinatorCrash(t *testing.T) {
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	specBytes, err := goldenSpec(77).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	env, err := goldenSpec(77).Build()
	if err != nil {
		t.Fatal(err)
	}
	numParams := env.NewModel().NumParams()

	done := startServeLoop(t, coord.Addr(), 10*time.Second)
	nodes, err := coord.AcceptNodes(1, 6, specBytes, wire.Float64, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	first := trainOnce(t, nodes[0], numParams)

	// Crash: sever without Bye. The node must re-dial and handshake with
	// the "restarted" coordinator (same listener, second AcceptNodes).
	nodes[0].AbortForTest()
	nodes, err = coord.AcceptNodes(1, 6, specBytes, wire.Float64, 10*time.Second)
	if err != nil {
		t.Fatalf("re-accept after crash: %v", err)
	}
	second := trainOnce(t, nodes[0], numParams)
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
			t.Fatalf("rejoined node's training diverged at param %d: %v != %v", i, first[i], second[i])
		}
	}

	// Orderly goodbye ends the loop with nil despite the open window.
	nodes[0].Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeLoop after Bye: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeLoop did not return after Bye")
	}
}

func TestServeLoopRejectsSpecChange(t *testing.T) {
	coord, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	specA, err := goldenSpec(77).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	specB, err := goldenSpec(78).Marshal()
	if err != nil {
		t.Fatal(err)
	}

	done := startServeLoop(t, coord.Addr(), 10*time.Second)
	nodes, err := coord.AcceptNodes(1, 6, specA, wire.Float64, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].AbortForTest()
	// The "restarted" coordinator presents a different spec: the node
	// must handshake, notice the spec mismatch, and bail out.
	if _, err = coord.AcceptNodes(1, 6, specB, wire.Float64, 10*time.Second); err != nil {
		t.Fatalf("re-accept: %v", err)
	}
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "different spec") {
			t.Fatalf("want a spec-mismatch error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeLoop did not reject the changed spec")
	}
}

func TestServeLoopFirstJoinFailureIsFatal(t *testing.T) {
	// Nothing listening: the first join fails, and ServeLoop must report
	// it immediately instead of retrying a run it never handshaked into.
	done := startServeLoop(t, "127.0.0.1:1", 10*time.Second)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ServeLoop returned nil without ever joining")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeLoop retried a first join that should be fatal")
	}
}
