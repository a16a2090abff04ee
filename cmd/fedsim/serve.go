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
	trainers       []fl.Trainer // methods, resolved by check
	checkpointPath string
	resumePath     string
	controlAddr    string
}

// check rejects the coordinator's flags before anything is created and
// resolves -methods into transport-routable trainers.
func (o *serveOptions) check(s *shared) error {
	if o.nodes < 1 {
		return fmt.Errorf("invalid -nodes %d: need at least one node", o.nodes)
	}
	if s.ckptEvery > 0 && o.checkpointPath == "" {
		return fmt.Errorf("-checkpoint-every needs -checkpoint <path>")
	}
	o.trainers = make([]fl.Trainer, len(o.methods))
	for i, m := range o.methods {
		var err error
		if o.trainers[i], err = distTrainer(m); err != nil {
			return err
		}
	}
	return nil
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
	return job{
		check: func() error { return o.check(s) },
		run:   func(stdout, stderr io.Writer) error { return runServe(o, s, stdout, stderr) },
	}
}

// runServe is the coordinator: wait for nodes, run the methods, report.
// With checkpointing enabled it persists snapshots to -checkpoint and,
// given -resume, fast-forwards the method list to the checkpointed method
// and continues it mid-schedule; with a control address it serves live
// progress over HTTP while the rounds run.
func runServe(o serveOptions, s *shared, stdout, stderr io.Writer) error {
	codec, trainers := s.codec, o.trainers
	spec := distSpec(o.quick, o.seed, o.rounds, s.dtype)
	// The codec selection rides the spec so each node rebuilds the same
	// uplink path — under sparse codecs a node owns the error-feedback
	// residuals of exactly the clients it trains.
	spec.Codec = codec.String()
	spec.TopKFrac = s.topkFrac
	env, err := spec.Build()
	if err != nil {
		return err
	}
	specBytes, err := spec.Marshal()
	if err != nil {
		return err
	}

	// A resume checkpoint must belong to one of the methods on the list
	// and to this exact run (Matches: every spec field lands in env, and
	// so in its identity); later trainers in the list run from scratch,
	// earlier ones are already done and are skipped.
	var resumeCkpt *fl.Checkpoint
	firstTrainer := 0
	if o.resumePath != "" {
		resumeCkpt, err = fl.ReadCheckpointFile(o.resumePath)
		if err != nil {
			return fmt.Errorf("reading -resume: %w", err)
		}
		firstTrainer = -1
		for i, tr := range trainers {
			if tr.Name() == resumeCkpt.Method {
				firstTrainer = i
				break
			}
		}
		if firstTrainer < 0 {
			return fmt.Errorf("-resume checkpoint holds %s state, not on the method list %v", resumeCkpt.Method, o.methods)
		}
		// FedProx trains on a copy of env whose local config carries its
		// proximal μ, and its checkpoints carry that identity.
		runEnv := env
		if p, ok := trainers[firstTrainer].(methods.FedProx); ok {
			e := *env
			e.Local.ProxMu = p.Mu
			runEnv = &e
		}
		if err := resumeCkpt.Matches(runEnv, resumeCkpt.Method); err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
		fmt.Fprintf(stdout, "resuming %s from %s at round %d/%d\n",
			resumeCkpt.Method, o.resumePath, resumeCkpt.Round, resumeCkpt.Rounds)
	}

	tracker := control.NewTracker(env.Local.Epochs)
	env.Observer = tracker
	if s.journal != "" {
		// The journal rides alongside the tracker: same observations, one
		// consumer serving live HTTP, one leaving a trace on disk.
		journal, err := openJournal(s.journal, env.Local.Epochs)
		if err != nil {
			return err
		}
		env.Observer = fl.MultiObserver(tracker, journal)
		defer func() {
			if err := journal.Err(); err != nil {
				fmt.Fprintf(stderr, "fedsim: journal write failed: %v\n", err)
			}
			journal.Close() //nolint:errcheck
		}()
		fmt.Fprintf(stdout, "journal → %s\n", s.journal)
	}
	if o.controlAddr != "" {
		srv, err := control.Serve(o.controlAddr, tracker)
		if err != nil {
			return fmt.Errorf("control plane: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "control plane on http://%s/status\n", displayAddr(srv.Addr()))
	}
	if path := o.checkpointPath; path != "" {
		env.Ckpt = &fl.CheckpointPlan{
			Every:   s.ckptEvery,
			Trigger: tracker.TakeTrigger,
			Sink: func(c *fl.Checkpoint) {
				if err := c.WriteFile(path); err != nil {
					fmt.Fprintf(stderr, "fedsim: checkpoint write failed: %v\n", err)
					return
				}
				fmt.Fprintf(stdout, "  checkpoint: %s after round %d/%d → %s\n", c.Method, c.Round, c.Rounds, path)
			},
		}
	}

	coord, err := transport.Listen(o.addr)
	if err != nil {
		return err
	}
	defer coord.Close()
	fmt.Fprintf(stdout, "coordinator listening on %s — waiting for %d node(s):\n", coord.Addr(), o.nodes)
	fmt.Fprintf(stdout, "  fedsim join -addr %s\n", coord.Addr())
	timeout := time.Duration(s.timeout * float64(time.Second))
	nodes, err := coord.AcceptNodes(o.nodes, len(env.Clients), specBytes, codec, timeout)
	if err != nil {
		return err
	}
	for _, nd := range nodes {
		fmt.Fprintf(stdout, "  node %q joined: clients [%d,%d)\n", nd.Name(), nd.Lo, nd.Hi)
	}
	fleet := transport.FleetOf(len(env.Clients), nodes)
	defer fleet.Close()
	env.Remote = fleet

	fmt.Fprintf(stdout, "\n%d clients × %d rounds, codec %s, deadline %v\n\n",
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
			env.Ckpt = &fl.CheckpointPlan{Resume: resumeCkpt}
			defer func() { env.Ckpt = nil }()
		}
		start := time.Now()
		res := tr.Run(env)
		fmt.Fprintf(stdout, "%-10s acc %.2f%%  wire: %s  (%v)\n",
			res.Method, 100*res.FinalAcc, res.Comm.String(), time.Since(start).Round(time.Millisecond))
	}
	return nil
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
// checkpoint) is re-dialed until the window expires; comparing the spec
// bytes guarantees the node only reconnects to the same run.
func runJoin(addr, name string, rejoinSec float64, stdout io.Writer) error {
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
			fmt.Fprintf(stdout, "joined %s as %q: %d clients replicated, serving [%d,%d)\n",
				addr, name, len(env.Clients), lo, hi)
			return transport.NewService(env), nil
		})
	if err != nil {
		return fmt.Errorf("serving: %w", err)
	}
	fmt.Fprintln(stdout, "coordinator said goodbye; exiting")
	return nil
}
