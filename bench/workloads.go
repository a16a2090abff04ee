package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"fedclust/internal/core"
	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/methods"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/scenario"
	"fedclust/internal/transport"
	"fedclust/internal/wire"
)

// benchWorkers is the reference host's core count: every environment
// runs with Env.Workers = GOMAXPROCS = benchWorkers.
const benchWorkers = 2

// hostileSeed fixes workload D's fault schedule (who straggles, who
// drops in which round, who is byzantine). The schedule is part of the
// workload's shape, like the client count: it decides how many visits
// run and how many bytes travel, and those totals must be the same for
// every -seed so a byte regression cannot hide behind a seed change.
const hostileSeed = 0xd05711e

// populationSeed fixes each workload's federated dataset: the class
// prototypes, the samples and who holds which. The population is part of
// the workload's shape: client sizes decide how evenly two workers share
// a round, so a population redrawn per seed would make every timing
// depend on the draw. -seed drives what varies run to run on one
// population: model initialisation, batch order, sampling streams and
// the late arrivals' data.
const populationSeed = 7

// lateArrivals is how many newcomers every workload places after a run:
// enough that ten of them lie beyond the reported 90th percentile.
const lateArrivals = 128

// workload is one benchmark workload: a name, the reason it exists, and
// the builder that turns a seed into a runnable instance.
type workload struct {
	Name string
	// Why is the one-line reason BENCHMARK.json records.
	Why   string
	build func(seed uint64, smoke bool) *instance
}

// instance is a built workload: the environment, the method, and the
// fixed facts the harness needs to count work and check outputs.
type instance struct {
	env     *fl.Env
	trainer func() fl.Trainer
	dataCfg data.SynthConfig
	// truth is the clients' ground-truth label group, nil for Dirichlet
	// populations.
	truth []int
	// arrivals are the late clients routed after the run; arrivalGroup is
	// each one's ground-truth group (nil when the population has none).
	arrivals     []*data.Dataset
	arrivalGroup []int
	// scen is the hostile schedule (workload D), nil otherwise.
	scen *scenario.Model
	// rig carries the TCP nodes (workload B), nil otherwise.
	rig *tcpRig
	// ckptBuf receives workload D's per-round snapshots.
	ckptBuf []byte
}

var workloads = []*workload{
	{
		Name:  "table1-lenet-f64",
		Why:   "Paper Table-I shape: FedClust, LeNet-5 on 3x16x16, 10 Dir(0.1) clients, float64; time is tensor conv/matmul and nn fwd+bwd",
		build: buildTable1,
	},
	{
		Name:  "tcp-mlp-f32-topk",
		Why:   "FedAvg over 2 localhost TCP nodes, small MLP, float32, topk-quant8 5% with error feedback: socket, frame and codec cost dominate; conv is bypassed",
		build: buildTCP,
	},
	{
		Name:  "many-clients-cluster",
		Why:   "512 tiny clients in 4 label groups plus 128 newcomers: per-visit overhead, O(n^2..n^3) formation and newcomer routing; heavy compute is bypassed",
		build: buildManyClients,
	},
	{
		Name:  "ifca-hostile-f32",
		Why:   "IFCA K=4 LeNet-5 float32 under stragglers, dropouts, sign-flip byzantines, median combine and per-round checkpoints: forward-heavy, robust and checkpoint paths",
		build: buildHostile,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// pick returns full unless the smoke scale is on.
func pick(smoke bool, full, tiny int) int {
	if smoke {
		return tiny
	}
	return full
}

// lenetFactory builds the Table-I network for a dataset geometry.
func lenetFactory(cfg data.SynthConfig, width float64) fl.ModelFactory {
	return func(r *rng.Rng) *nn.Sequential {
		return nn.LeNet5(r, cfg.C, cfg.H, cfg.W, cfg.Classes, width)
	}
}

// dirichletArrivals draws n late clients for a Dirichlet population.
// Arrival j takes after founding client j mod len(clients): it holds
// fresh samples, its own share of them, of the classes that founder
// mostly holds, so it has a home among the founders.
func dirichletArrivals(cfg data.SynthConfig, clients []*fl.Client, seed uint64, n, perClass int) []*data.Dataset {
	shares := (n + len(clients) - 1) / len(clients)
	extra := data.GenerateExtra(cfg, arrivalStream(seed), perClass*shares)
	out := make([]*data.Dataset, n)
	for j := range out {
		hist := clients[j%len(clients)].Train.LabelHistogram()
		total := 0
		for _, c := range hist {
			total += c
		}
		var keep []int
		for k, c := range hist {
			if 10*c >= total {
				keep = append(keep, k)
			}
		}
		out[j] = share(extra.FilterClasses(keep), j/len(clients), shares)
	}
	return out
}

// groupArrivals draws perGroup late clients for each label group, each
// with fresh samples of its group's classes.
func groupArrivals(cfg data.SynthConfig, groups [][]int, seed uint64, perGroup, perClass int) (sets []*data.Dataset, group []int) {
	extra := data.GenerateExtra(cfg, arrivalStream(seed), perClass*perGroup)
	for g, classes := range groups {
		all := extra.FilterClasses(classes)
		for j := 0; j < perGroup; j++ {
			sets = append(sets, share(all, j, perGroup))
			group = append(group, g)
		}
	}
	return sets, group
}

// share is the j-th of n equal interleaved parts of d.
func share(d *data.Dataset, j, n int) *data.Dataset {
	var rows []int
	for i := j; i < d.Len(); i += n {
		rows = append(rows, i)
	}
	return d.Subset(rows)
}

// arrivalStream is the generator stream the late arrivals of a seed are
// drawn from. It stays clear of the streams data.Generate reserves.
func arrivalStream(seed uint64) uint64 { return 0xa221e000 + seed }

// buildTable1 is workload A.
func buildTable1(seed uint64, smoke bool) *instance {
	cfg := data.SynthCIFAR10(populationSeed)
	cfg.TrainPerClass = pick(smoke, 75, 24)
	cfg.TestPerClass = pick(smoke, 60, 10)
	cfg.ClassSep *= 1.6
	nClients := pick(smoke, 10, 4)
	train, test := data.Generate(cfg)
	clients := fl.BuildDirichletClients(train, test, nClients, 0.1, rng.New(populationSeed).Derive(0xd17))
	env := &fl.Env{
		Clients:   clients,
		Factory:   lenetFactory(cfg, 0.5),
		Rounds:    pick(smoke, 12, 2),
		Local:     fl.LocalConfig{Epochs: 2, BatchSize: 32, LR: 0.02, Momentum: 0.5},
		Seed:      seed,
		EvalEvery: 4,
		Workers:   benchWorkers,
	}
	return &instance{
		env:      env,
		trainer:  func() fl.Trainer { return &core.FedClust{} },
		dataCfg:  cfg,
		arrivals: dirichletArrivals(cfg, clients, seed, pick(smoke, lateArrivals, 4), 6),
	}
}

// tcpSpec is workload B's environment recipe.
func tcpSpec(seed uint64, smoke bool) *transport.Spec {
	return &transport.Spec{
		Dataset: data.SynthConfig{
			Name: "bench-tcp", C: 1, H: 16, W: 16, Classes: 8,
			TrainPerClass: pick(smoke, 96, 24), TestPerClass: pick(smoke, 48, 8),
			ClassSep: 0.3, Noise: 1.0, SharedBG: 0.4, Smooth: 2, Seed: populationSeed,
		},
		Groups:    [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}},
		PerGroup:  []int{3, 3, 3, 3},
		Hidden:    []int{128, 64},
		Seed:      seed,
		Rounds:    pick(smoke, 120, 4),
		EvalEvery: 0,
		Local:     fl.LocalConfig{Epochs: 1, BatchSize: 16, LR: 0.05, Momentum: 0.9},
		DType:     "float32",
		Codec:     "topk-quant8",
		TopKFrac:  0.05,
	}
}

// buildTCP is workload B. The environment comes from transport.Spec, the
// same recipe the nodes rebuild their replicas from.
func buildTCP(seed uint64, smoke bool) *instance {
	sp := tcpSpec(seed, smoke)
	env, err := sp.Build()
	if err != nil {
		panic(fmt.Sprintf("bench: tcp spec: %v", err))
	}
	env.Workers = benchWorkers
	specBytes, err := sp.Marshal()
	if err != nil {
		panic(fmt.Sprintf("bench: tcp spec: %v", err))
	}
	perGroup := pick(smoke, lateArrivals/len(sp.Groups), 1)
	arrivals, group := groupArrivals(sp.Dataset, sp.Groups, seed, perGroup, pick(smoke, 24, 8))
	return &instance{
		env:          env,
		trainer:      func() fl.Trainer { return methods.FedAvg{} },
		dataCfg:      sp.Dataset,
		truth:        groupTruth(sp.PerGroup),
		arrivals:     arrivals,
		arrivalGroup: group,
		rig:          &tcpRig{spec: sp, specBytes: specBytes, nodes: 2},
	}
}

func groupTruth(perGroup []int) []int {
	var out []int
	for g, n := range perGroup {
		for i := 0; i < n; i++ {
			out = append(out, g)
		}
	}
	return out
}

// buildManyClients is workload C.
func buildManyClients(seed uint64, smoke bool) *instance {
	perGroup := pick(smoke, 128, 6)
	cfg := data.SynthConfig{
		Name: "bench-many", C: 1, H: 8, W: 8, Classes: 8,
		TrainPerClass: 30 * perGroup, TestPerClass: 8 * perGroup,
		ClassSep: 0.45, Noise: 1.0, SharedBG: 0.3, Smooth: 1, Seed: populationSeed,
	}
	groups := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
	sizes := []int{perGroup, perGroup, perGroup, perGroup}
	train, test := data.Generate(cfg)
	clients, truth := fl.BuildGroupClients(train, test, groups, sizes, rng.New(populationSeed))
	env := &fl.Env{
		Clients: clients,
		Factory: func(r *rng.Rng) *nn.Sequential { return nn.MLP(r, cfg.C*cfg.H*cfg.W, 24, cfg.Classes) },
		Rounds:  pick(smoke, 6, 2),
		Local:   fl.LocalConfig{Epochs: 1, BatchSize: 8, LR: 0.1, Momentum: 0.9},
		Seed:    seed,
		Workers: benchWorkers,
	}
	arrivals, group := groupArrivals(cfg, groups, seed, pick(smoke, lateArrivals/len(groups), 1), 12)
	return &instance{
		env:          env,
		trainer:      func() fl.Trainer { return &core.FedClust{} },
		dataCfg:      cfg,
		truth:        truth,
		arrivals:     arrivals,
		arrivalGroup: group,
	}
}

// buildHostile is workload D.
func buildHostile(seed uint64, smoke bool) *instance {
	cfg := data.SynthFMNIST(populationSeed)
	cfg.TrainPerClass = pick(smoke, 52, 16)
	cfg.TestPerClass = pick(smoke, 40, 8)
	cfg.ClassSep *= 0.7
	nClients := pick(smoke, 12, 6)
	rounds := pick(smoke, 30, 3)
	train, test := data.Generate(cfg)
	clients := fl.BuildDirichletClients(train, test, nClients, 1.0, rng.New(populationSeed).Derive(0xd17))
	scen := scenario.New(scenario.Config{
		StragglerFrac: 0.25, SlowdownMax: 3, DropoutRate: 0.1,
		Deadline: 1.3, Jitter: 0.15,
		ByzantineFrac: 0.17, Attack: scenario.AttackSignFlip,
	}, hostileSeed, nClients)
	env := &fl.Env{
		Clients:       clients,
		Factory:       lenetFactory(cfg, 0.5),
		Rounds:        rounds,
		Local:         fl.LocalConfig{Epochs: 2, BatchSize: 32, LR: 0.04, Momentum: 0.7},
		Seed:          seed,
		EvalEvery:     1,
		Workers:       benchWorkers,
		DType:         fl.Float32,
		Participation: fl.Participation{Scenario: scen},
		Aggregator:    &fl.Median{},
	}
	in := &instance{
		env:      env,
		trainer:  func() fl.Trainer { return methods.IFCA{K: 4} },
		dataCfg:  cfg,
		arrivals: dirichletArrivals(cfg, clients, seed, pick(smoke, lateArrivals, 4), 6),
		scen:     scen,
	}
	env.Ckpt = &fl.CheckpointPlan{Every: 1, Sink: memorySink(&in.ckptBuf)}
	return in
}

// tcpRig runs workload B's nodes: goroutines of this process that dial
// the coordinator over real 127.0.0.1 sockets, rebuild their replica from
// the spec and serve train requests. A rig is brought up before every
// run and torn down after it, because a node's error-feedback residuals
// live in its Service for the Service's lifetime: a run on a used
// Service would start from the previous run's residuals.
type tcpRig struct {
	spec      *transport.Spec
	specBytes []byte
	nodes     int

	coord    *transport.Coordinator
	replicas []*fl.Env // one per node, built on first use and kept
	fleet    *transport.Fleet
	wg       sync.WaitGroup
	nodeErr  []error
}

// up joins the nodes and returns the fleet that routes every client to
// them. The first call also builds the node replicas.
func (r *tcpRig) up(nClients int) (*transport.Fleet, error) {
	if r.coord == nil {
		c, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		r.coord = c
		r.replicas = make([]*fl.Env, r.nodes)
	}
	r.nodeErr = make([]error, r.nodes)
	for i := 0; i < r.nodes; i++ {
		r.wg.Add(1)
		go func(i int) {
			defer r.wg.Done()
			r.nodeErr[i] = r.serveNode(i)
		}(i)
	}
	codec, err := wire.ParseCodec(r.spec.Codec)
	if err != nil {
		return nil, err
	}
	joined, err := r.coord.AcceptNodes(r.nodes, nClients, r.specBytes, codec, 60*time.Second)
	if err != nil {
		return nil, err
	}
	r.fleet = transport.FleetOf(nClients, joined)
	return r.fleet, nil
}

// serveNode is one node's life for one run: join, replicate, serve until
// the coordinator says Bye.
func (r *tcpRig) serveNode(i int) error {
	conn, _, _, specBytes, err := transport.Join(r.coord.Addr(), fmt.Sprintf("bench-node-%d", i))
	if err != nil {
		return err
	}
	if r.replicas[i] == nil {
		sp, err := transport.ParseSpec(specBytes)
		if err != nil {
			closeQuietly(conn)
			return err
		}
		env, err := sp.Build()
		if err != nil {
			closeQuietly(conn)
			return err
		}
		env.Workers = benchWorkers
		r.replicas[i] = env
	}
	return transport.NewService(r.replicas[i]).ServeConn(conn)
}

func closeQuietly(c net.Conn) { _ = c.Close() } // error path only; the join error is what is reported

// down says Bye to the nodes and waits until every node goroutine has
// returned.
func (r *tcpRig) down() error {
	var first error
	if r.fleet != nil {
		first = r.fleet.Close()
		r.fleet = nil
	}
	r.wg.Wait()
	for _, err := range r.nodeErr {
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close releases the listener once the workload is done.
func (r *tcpRig) close() error {
	if r.coord == nil {
		return nil
	}
	err := r.coord.Close()
	r.coord = nil
	return err
}
