// Distributed walkthrough: the same federated run twice — once fully
// in-process, once with every client's local training executed by real
// node processes over localhost TCP — and a bit-level comparison of the
// results. It demonstrates the whole transport stack end to end:
//
//  1. the parent process becomes the coordinator: it builds the
//     environment, listens on a free port, and spawns N copies of
//     itself as node processes (`-role node`);
//  2. each node dials in, receives the environment spec in the
//     handshake, rebuilds an identical replica (data is never shipped —
//     only the recipe), and serves train requests;
//  3. the coordinator runs FedAvg and FedClust with its clients routed
//     to the nodes, measuring actual bytes on the wire;
//  4. final accuracies are compared against the in-process baseline —
//     under the lossless codec they match bit for bit.
//
// Run it with:
//
//	go run ./examples/distributed            # 3 nodes, quick workload
//	go run ./examples/distributed -nodes 5
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"time"

	"fedclust/internal/core"
	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/transport"
	"fedclust/internal/wire"
)

func main() {
	role := flag.String("role", "coordinator", "internal: coordinator | node")
	addr := flag.String("addr", "", "coordinator address (node role)")
	nodes := flag.Int("nodes", 3, "node processes to spawn")
	seed := flag.Uint64("seed", 42, "root seed")
	flag.Parse()
	switch *role {
	case "node":
		runNode(*addr)
	case "coordinator":
		runCoordinator(*nodes, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown role %q\n", *role)
		os.Exit(2)
	}
}

// spec is the walkthrough workload: 8 clients in four label groups on an
// 8×8 synthetic dataset — small enough for seconds-long runs, grouped so
// FedClust has structure to discover.
func spec(seed uint64) *transport.Spec {
	return &transport.Spec{
		Dataset: data.SynthConfig{
			Name: "dist4", C: 1, H: 8, W: 8, Classes: 8,
			TrainPerClass: 60, TestPerClass: 20,
			ClassSep: 0.85, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: seed,
		},
		Groups:    [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}},
		PerGroup:  []int{2, 2, 2, 2},
		Hidden:    []int{24},
		Seed:      seed,
		Rounds:    8,
		EvalEvery: 4,
		Local:     fl.LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9},
	}
}

// runNode is the child-process role: join, replicate, serve until Bye.
func runNode(addr string) {
	conn, lo, hi, specBytes, err := transport.Join(addr, fmt.Sprintf("node-%d", os.Getpid()))
	if err != nil {
		fmt.Fprintf(os.Stderr, "node: %v\n", err)
		os.Exit(1)
	}
	sp, err := transport.ParseSpec(specBytes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "node: %v\n", err)
		os.Exit(1)
	}
	env, err := sp.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "node: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("[node %d] replica ready, serving clients [%d,%d)\n", os.Getpid(), lo, hi)
	if err := transport.NewService(env).ServeConn(conn); err != nil {
		fmt.Fprintf(os.Stderr, "node: %v\n", err)
		os.Exit(1)
	}
}

func runCoordinator(nNodes int, seed uint64) {
	sp := spec(seed)
	if nClients := sum(sp.PerGroup); nNodes < 1 || nNodes > nClients {
		fmt.Fprintf(os.Stderr, "distributed: -nodes %d must be in [1,%d] (one client range per node)\n", nNodes, nClients)
		os.Exit(2)
	}
	specBytes, err := sp.Marshal()
	check(err)

	// --- Baseline: the identical schedule, all in one process.
	fmt.Printf("== in-process baseline ==\n")
	baseEnv, err := sp.Build()
	check(err)
	baseAvg := methods.FedAvg{}.Run(baseEnv)
	fmt.Printf("FedAvg    acc %.2f%%  (traffic: %s)\n", 100*baseAvg.FinalAcc, baseAvg.Comm.String())
	baseClust := (&core.FedClust{}).Run(baseEnv)
	fmt.Printf("FedClust  acc %.2f%%  clusters %v\n\n", 100*baseClust.FinalAcc, baseClust.Clusters)

	// --- Distributed: same schedule, training on N node processes.
	coord, err := transport.Listen("127.0.0.1:0")
	check(err)
	defer coord.Close()
	self, err := os.Executable()
	check(err)
	fmt.Printf("== distributed: spawning %d node processes against %s ==\n", nNodes, coord.Addr())
	children := make([]*exec.Cmd, nNodes)
	for i := range children {
		cmd := exec.Command(self, "-role", "node", "-addr", coord.Addr())
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		check(cmd.Start())
		children[i] = cmd
	}
	env, err := sp.Build()
	check(err)
	nodes, err := coord.AcceptNodes(nNodes, len(env.Clients), specBytes, wire.Float64, 60*time.Second)
	check(err)
	for _, nd := range nodes {
		fmt.Printf("  %q owns clients [%d,%d)\n", nd.Name(), nd.Lo, nd.Hi)
	}
	fleet := transport.FleetOf(len(env.Clients), nodes)
	env.Remote = fleet

	start := time.Now()
	distAvg := methods.FedAvg{}.Run(env)
	fmt.Printf("FedAvg    acc %.2f%%  (traffic: %s; the sockets carried up %s, down %s)\n", 100*distAvg.FinalAcc,
		distAvg.Comm.String(), fl.FormatBytes(distAvg.Comm.MeasuredUp), fl.FormatBytes(distAvg.Comm.MeasuredDown))
	distClust := (&core.FedClust{}).Run(env)
	fmt.Printf("FedClust  acc %.2f%%  clusters %v  [%v]\n\n",
		100*distClust.FinalAcc, distClust.Clusters, time.Since(start).Round(time.Millisecond))

	check(fleet.Close()) // says Bye; nodes exit
	for _, cmd := range children {
		check(cmd.Wait())
	}

	// --- The point: network execution changed nothing about learning.
	ok := true
	ok = verify(&ok, "FedAvg final accuracy", baseAvg.FinalAcc, distAvg.FinalAcc)
	ok = verify(&ok, "FedClust final accuracy", baseClust.FinalAcc, distClust.FinalAcc)
	for i := range baseClust.Clusters {
		if baseClust.Clusters[i] != distClust.Clusters[i] {
			fmt.Printf("MISMATCH: client %d clustered %d in-process vs %d distributed\n",
				i, baseClust.Clusters[i], distClust.Clusters[i])
			ok = false
		}
	}
	if !ok {
		fmt.Println("\nresult: DIVERGED — distributed run does not match the in-process baseline")
		os.Exit(1)
	}
	fmt.Println("result: MATCH — distributed and in-process runs are bit-identical")
}

// verify compares one scalar bit-exactly.
func verify(ok *bool, what string, a, b float64) bool {
	if math.Float64bits(a) != math.Float64bits(b) {
		fmt.Printf("MISMATCH: %s %v (in-process) vs %v (distributed)\n", what, a, b)
		*ok = false
	}
	return *ok
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "distributed: %v\n", err)
		os.Exit(1)
	}
}
