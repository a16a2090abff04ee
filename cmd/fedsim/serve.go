package main

// fedsim serve / fedsim join — the networked federation entry points.
//
// The coordinator (`serve`) owns the round schedule: it listens, waits
// for N nodes, ships each the environment spec plus a contiguous client
// range, and then runs the selected methods with every assigned client's
// local pass executing on its node. Nodes (`join`) dial in, rebuild the
// identical environment replica from the spec, and serve train requests
// until the coordinator says goodbye. The coordinator's communication
// stats are the engine's byte ledger, the same numbers an in-process run
// reports; what the sockets carried rides beside them as measured_*.

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"fedclust/internal/control"
	"fedclust/internal/core"
	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/transport"
)

// distSpec is the distributed walkthrough workload: label-grouped
// synthetic clients on an MLP — small enough that a laptop coordinator
// plus a few localhost nodes finish in seconds, structured enough (two
// or four label groups) that FedClust's clustering has something to
// find.
func distSpec(quick bool, seed uint64, rounds int, dtype fl.DType) *transport.Spec {
	s := &transport.Spec{
		Dataset: data.SynthConfig{
			Name: "dist8", C: 1, H: 16, W: 16, Classes: 8,
			TrainPerClass: 100, TestPerClass: 30,
			ClassSep: 0.85, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: seed,
		},
		Groups:    [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}},
		PerGroup:  []int{5, 5, 5, 5},
		Hidden:    []int{64},
		Seed:      seed,
		Rounds:    20,
		EvalEvery: 5,
		Local:     fl.LocalConfig{Epochs: 2, BatchSize: 32, LR: 0.1, Momentum: 0.9},
		DType:     dtype.String(),
	}
	if quick {
		s.Dataset.H, s.Dataset.W, s.Dataset.Classes = 8, 8, 4
		s.Dataset.TrainPerClass, s.Dataset.TestPerClass = 40, 16
		s.Groups = [][]int{{0, 1}, {2, 3}}
		s.PerGroup = []int{3, 3}
		s.Hidden = []int{20}
		s.Rounds = 6
		s.EvalEvery = 2
		s.Local.BatchSize = 16
	}
	if rounds > 0 {
		s.Rounds = rounds
	}
	return s
}

// distTrainer maps a method name to a trainer whose local passes route
// through the transport (methods driving engine.DefaultLocal).
func distTrainer(name string) (fl.Trainer, error) {
	switch strings.ToLower(name) {
	case "fedavg":
		return methods.FedAvg{}, nil
	case "fedprox":
		return methods.FedProx{Mu: 0.1}, nil
	case "cfl":
		return methods.CFL{}, nil
	case "fedclust":
		return &core.FedClust{}, nil
	default:
		return nil, fmt.Errorf("method %q is not transport-routable (use fedavg, fedprox, cfl, fedclust)", name)
	}
}

// serveOptions are the coordinator's own flags; the run's rounds, codec,
// dtype, deadline and journal are among the shared ones.
type serveOptions struct {
	quick          bool
	seed           uint64
	rounds         int
	addr           string
	nodes          int
	methods        []string
	checkpointPath string
	resumePath     string
	controlAddr    string
}

func bindServe(fs *flag.FlagSet, s *shared) job {
	// A bare `fedsim serve` runs FedAvg + FedClust; -methods narrows or
	// widens the distributed set.
	o := serveOptions{methods: []string{"fedavg", "fedclust"}}
	s.computeVars(fs)
	s.wireVars(fs)
	s.journalVar(fs, "append a JSONL round journal (one event per round) to this file")
	s.roundsVar(fs, &o.rounds)
	fs.BoolVar(&o.quick, "quick", false, "reduced workload for fast runs")
	fs.Uint64Var(&o.seed, "seed", 1, "root seed")
	addrVar(fs, &o.addr, "coordinator listen address")
	fs.IntVar(&o.nodes, "nodes", 1, "node processes to wait for before training")
	listVar(fs, &o.methods, "methods", "comma-separated transport-routable methods", asString)
	fs.Float64Var(&s.timeout, "timeout", 60, "per-request transport deadline in seconds, 0 = none")
	fs.StringVar(&o.checkpointPath, "checkpoint", "", "write checkpoints to this file")
	fs.IntVar(&s.ckptEvery, "checkpoint-every", 0, "emit a checkpoint every N completed rounds (0 = only on demand)")
	fs.StringVar(&o.resumePath, "resume", "", "resume the run from this checkpoint file")
	fs.StringVar(&o.controlAddr, "control", "", "HTTP control-plane listen address, e.g. :7172 (empty = disabled)")
	return job{run: func(io.Writer, io.Writer) int { runServe(o, s); return 0 }}
}

// runServe is the coordinator: wait for nodes, run the methods, report.
// With checkpointing enabled it persists snapshots to -checkpoint and,
// given -resume, fast-forwards the method list to the checkpointed method
// and continues it mid-schedule; with a control address it serves live
// progress over HTTP while the rounds run.
func runServe(o serveOptions, s *shared) {
	codec, nNodes, methodList := s.codec, o.nodes, o.methods
	var err error
	if nNodes < 1 {
		fatalf("need at least one node (-nodes)")
	}
	trainers := make([]fl.Trainer, len(methodList))
	for i, m := range methodList {
		if trainers[i], err = distTrainer(m); err != nil {
			fatalf("%v", err)
		}
	}
	spec := distSpec(o.quick, o.seed, o.rounds, s.dtype)
	// The codec selection rides the spec so each node rebuilds the same
	// uplink path — under sparse codecs a node owns the error-feedback
	// residuals of exactly the clients it trains.
	spec.Codec = codec.String()
	spec.TopKFrac = s.topkFrac
	env, err := spec.Build()
	if err != nil {
		fatalf("%v", err)
	}
	specBytes, err := spec.Marshal()
	if err != nil {
		fatalf("%v", err)
	}
	specHash := transport.SpecHash(specBytes)

	// A resume checkpoint must belong to this exact spec (the hash pins
	// dataset, population, schedule, codec-independent run identity) and
	// to one of the methods on the list; later trainers in the list run
	// from scratch, earlier ones are already done and are skipped.
	var resumeCkpt *fl.Checkpoint
	firstTrainer := 0
	if o.resumePath != "" {
		resumeCkpt, err = fl.ReadCheckpointFile(o.resumePath)
		if err != nil {
			fatalf("reading -resume: %v", err)
		}
		if resumeCkpt.SpecHash != specHash {
			fatalf("-resume checkpoint was taken under a different run spec (hash %#x, this run %#x) — same flags required", resumeCkpt.SpecHash, specHash)
		}
		firstTrainer = -1
		for i, tr := range trainers {
			if tr.Name() == resumeCkpt.Method {
				firstTrainer = i
				break
			}
		}
		if firstTrainer < 0 {
			fatalf("-resume checkpoint holds %s state, not on the method list %v", resumeCkpt.Method, methodList)
		}
		if err := resumeCkpt.Matches(env, resumeCkpt.Method, 0); err != nil {
			fatalf("-resume: %v", err)
		}
		fmt.Printf("resuming %s from %s at round %d/%d\n",
			resumeCkpt.Method, o.resumePath, resumeCkpt.Round, resumeCkpt.Rounds)
	}

	tracker := control.NewTracker(env.Local.Epochs)
	env.Observer = tracker
	if s.journal != "" {
		// The journal rides alongside the tracker: same observations, one
		// consumer serving live HTTP, one leaving a trace on disk.
		journal := openJournal(s.journal, env.Local.Epochs)
		env.Observer = fl.MultiObserver(tracker, journal)
		defer func() {
			if err := journal.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "fedsim: journal write failed: %v\n", err)
			}
			journal.Close() //nolint:errcheck
		}()
		fmt.Printf("journal → %s\n", s.journal)
	}
	if o.controlAddr != "" {
		srv, err := control.Serve(o.controlAddr, tracker)
		if err != nil {
			fatalf("control plane: %v", err)
		}
		defer srv.Close()
		fmt.Printf("control plane on http://%s/status\n", displayAddr(srv.Addr()))
	}
	if o.checkpointPath != "" || s.ckptEvery > 0 {
		path := o.checkpointPath
		if path == "" {
			fatalf("-checkpoint-every needs -checkpoint <path>")
		}
		env.Ckpt = &fl.CheckpointPlan{
			Every:    s.ckptEvery,
			Trigger:  tracker.TakeTrigger,
			SpecHash: specHash,
			Sink: func(c *fl.Checkpoint) {
				if err := c.WriteFile(path); err != nil {
					fmt.Fprintf(os.Stderr, "fedsim: checkpoint write failed: %v\n", err)
					return
				}
				fmt.Printf("  checkpoint: %s after round %d/%d → %s\n", c.Method, c.Round, c.Rounds, path)
			},
		}
	}

	coord, err := transport.Listen(o.addr)
	if err != nil {
		fatalf("%v", err)
	}
	defer coord.Close()
	fmt.Printf("coordinator listening on %s — waiting for %d node(s):\n", coord.Addr(), nNodes)
	fmt.Printf("  fedsim join -addr %s\n", coord.Addr())
	timeout := time.Duration(s.timeout * float64(time.Second))
	nodes, err := coord.AcceptNodes(nNodes, len(env.Clients), specBytes, codec, timeout)
	if err != nil {
		fatalf("%v", err)
	}
	for _, nd := range nodes {
		fmt.Printf("  node %q joined: clients [%d,%d)\n", nd.Name(), nd.Lo, nd.Hi)
	}
	fleet := transport.FleetOf(len(env.Clients), nodes)
	defer fleet.Close()
	env.Remote = fleet

	fmt.Printf("\n%d clients × %d rounds, codec %s, deadline %v\n\n",
		len(env.Clients), env.Rounds, codec, timeout)
	for _, tr := range trainers[firstTrainer:] {
		if env.Ckpt != nil {
			env.Ckpt.Resume = nil
			if resumeCkpt != nil && tr.Name() == resumeCkpt.Method {
				env.Ckpt.Resume = resumeCkpt
			}
		} else if resumeCkpt != nil && tr.Name() == resumeCkpt.Method {
			// Resuming without -checkpoint: attach a sink-less plan just
			// to carry the resume state into the engine.
			env.Ckpt = &fl.CheckpointPlan{Resume: resumeCkpt, SpecHash: specHash}
			defer func() { env.Ckpt = nil }()
		}
		start := time.Now()
		res := tr.Run(env)
		fmt.Printf("%-10s acc %.2f%%  wire: %s  (%v)\n",
			res.Method, 100*res.FinalAcc, res.Comm.String(), time.Since(start).Round(time.Millisecond))
	}
}

// displayAddr turns a bound listen address into something dialable from
// the local machine (":7172" → "127.0.0.1:7172").
func displayAddr(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "127.0.0.1" + addr
	}
	if host, port, err := net.SplitHostPort(addr); err == nil && (host == "0.0.0.0" || host == "::" || host == "") {
		return net.JoinHostPort("127.0.0.1", port)
	}
	return addr
}

// runJoin is a node: dial, replicate the environment, serve until Bye.
// With a rejoin window, a lost coordinator (crash, restart-from-
// checkpoint) is re-dialed until the window expires; the spec hash
// guarantees the node only reconnects to the same run.
func runJoin(addr, name string, rejoinSec float64) {
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	window := time.Duration(rejoinSec * float64(time.Second))
	err := transport.ServeLoop(addr, name, window, time.Second,
		func(lo, hi int, specBytes []byte) (*transport.Service, error) {
			spec, err := transport.ParseSpec(specBytes)
			if err != nil {
				return nil, err
			}
			env, err := spec.Build()
			if err != nil {
				return nil, fmt.Errorf("building environment replica: %w", err)
			}
			fmt.Printf("joined %s as %q: %d clients replicated, serving [%d,%d)\n",
				addr, name, len(env.Clients), lo, hi)
			return transport.NewService(env), nil
		})
	if err != nil {
		fatalf("serving: %v", err)
	}
	fmt.Println("coordinator said goodbye; exiting")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fedsim: "+format+"\n", args...)
	os.Exit(1)
}
