package fl

import (
	"fmt"

	"fedclust/internal/data"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/wire"
)

// Visit is one client visit's inputs — everything that differs between
// a training round in the engine, the same round on a transport node,
// FedClust's warm-up and IFCA's train step.
type Visit struct {
	// Client and Round key the visit's deterministic RNG stream.
	Client, Round int
	// Layer selects the reported vector: FullParams or FinalLayer.
	Layer int
	Cfg   LocalConfig
	// Start is the sender's exact copy of the broadcast. The lane trains
	// from Start as narrowed by Down; sparse uplinks are ranked against
	// Start itself.
	Start []float64
	// Data is the dataset the visit trains on (the client's training
	// split, or a hostile scenario's view of it).
	Data *data.Dataset
	// Down is the dense codec Start is narrowed through before loading —
	// what the wire would deliver. A node whose start already came off a
	// real wire passes wire.Float64: narrowing twice is not idempotent
	// under Quant8.
	Down wire.Codec
	// Up is the uplink codec. A sparse Up applies, through EF, to
	// full-parameter reports only; every other report travels dense
	// under Up.Downlink().
	Up wire.Codec
	// EF is the residual accumulator of whoever runs the visit; nil
	// reports dense.
	EF *ErrorFeedback
}

// sparse reports whether the visit's uplink is a sparse frame.
func (v *Visit) sparse() bool { return v.EF != nil && v.Layer == FullParams }

// Lane is one worker's whole client-visit state: one network, in the
// run's dtype, with its training scratch (optimizer, loss head,
// batcher), the visit RNG, the error-feedback scratch and one
// frame/vector buffer pair for codec round trips. Every client visit in
// the system — in-process or behind a socket — is Visit or VisitFrame on
// a lane, so the simulator and the wire cannot diverge. A warm lane
// allocates nothing per full-parameter visit. A lane serves one visit at
// a time.
type Lane struct {
	// net is the lane's network; its weights are whatever the last visit
	// or Load left.
	net network
	env *Env
	// params is the network's parameter count; final is its last weight
	// layer's, the one a FinalLayer visit reports: the tail of the
	// parameter vector.
	params, final int
	rng           rng.Rng
	efs           EFScratch
	frame         []byte
	vec           []float64
}

// NewLane builds a lane for env: env.NewModel() under Float64, its
// float32 mirror under Float32.
func NewLane(env *Env) *Lane {
	m := env.NewModel()
	l := &Lane{env: env, params: m.NumParams(), final: len(nn.FinalLayerVector(m))}
	if env.DType == Float32 {
		l.net = &visitState[float32]{net: nn.Mirror32(m)}
	} else {
		l.net = &visitState[float64]{net: m}
	}
	return l
}

// NewLanes builds one lane per executor worker of env — the pool behind
// the round engine, FedClust's warm-up and a transport node. Indexed by
// the executor's worker id it needs no locking: slot w is only ever
// touched by worker w (the executor's worker ids are goroutine-stable).
// Every visit loads its starting weights and resets the
// optimizer, so reuse is bit-equivalent to a fresh lane provided the
// environment's Factory embeds no mutable state that survives a load
// and changes behaviour (forward caches and workspaces are fine — see
// DESIGN.md §5).
func NewLanes(env *Env) []*Lane {
	lanes := make([]*Lane, env.WorkerCount())
	for w := range lanes {
		lanes[w] = NewLane(env)
	}
	return lanes
}

// Rebind points a pooled lane at the run's environment, which may be a
// copy of the one it was built for with a different LocalConfig (never a
// different model, seed or dtype).
func (l *Lane) Rebind(env *Env) { l.env = env }

// NumParams is the length of the network's parameter vector.
func (l *Lane) NumParams() int { return l.params }

// FinalDim is the parameter count of the network's last weight layer:
// the length of a FinalLayer report.
func (l *Lane) FinalDim() int { return l.final }

// Load writes the float64 parameter vector vec into the lane's network,
// rounding each value once under Float32, for Evaluate.
func (l *Lane) Load(vec []float64) {
	if len(vec) != l.params {
		panic(fmt.Sprintf("fl: Lane.Load of %d values, want %d", len(vec), l.params))
	}
	l.net.load(vec)
}

// Evaluate is TrainScratch.Evaluate on the weights the lane's network
// holds: what the last Load wrote, unless a visit ran since.
func (l *Lane) Evaluate(d *data.Dataset, batchSize int) (loss, acc float64) {
	return l.net.evaluate(d, batchSize)
}

// Visit runs v and writes the selected vector into out exactly as the
// receiver of its uplink will hold it: the trained parameters themselves
// under a lossless uplink, otherwise the decode of the frame VisitFrame
// would ship (and, under a sparse uplink, the dropped remainder joins
// the client's residual in v.EF).
func (l *Lane) Visit(v *Visit, out []float64) {
	l.train(v, out)
	if !v.sparse() && v.Up.Downlink() == wire.Float64 {
		return
	}
	l.frame = l.appendUplink(l.frame[:0], v, out)
	if !v.sparse() { // ErrorFeedback.Visit already rewrote out from the frame
		l.decodeFrame(out)
	}
}

// VisitFrame is Visit for a node that ships its report: the uplink frame
// is appended to dst and returned. out is the working buffer for the
// selected vector; only under a sparse uplink is it the receiver-side
// reconstruction afterwards.
func (l *Lane) VisitFrame(dst []byte, v *Visit, out []float64) []byte {
	l.train(v, out)
	return l.appendUplink(dst, v, out)
}

// train runs the local pass from Start as the wire delivers it, on the
// visit's (Client, Round) stream, and writes the selected vector into
// out: every parameter, or the final layer's.
func (l *Lane) train(v *Visit, out []float64) {
	start := v.Start
	if v.Down != wire.Float64 {
		l.frame = wire.EncodeInto(l.frame[:0], v.Down, start)
		l.vec = l.decodeFrame(l.vec)
		start = l.vec
	}
	n := l.final
	if v.Layer == FullParams {
		n = l.params
	}
	if len(out) != n || len(start) != l.params {
		panic(fmt.Sprintf("fl: visit of %d start values into %d, want %d into %d", len(start), len(out), l.params, n))
	}
	l.env.ClientRngInto(&l.rng, v.Client, v.Round)
	l.net.train(start, v.Data, v.Cfg, &l.rng, out)
}

// appendUplink appends the visit's uplink frame for the extracted vector
// to dst — the one place an update is encoded.
func (l *Lane) appendUplink(dst []byte, v *Visit, out []float64) []byte {
	if v.sparse() {
		return v.EF.Visit(dst, v.Client, v.Start, out, &l.efs)
	}
	return wire.EncodeInto(dst, v.Up.Downlink(), out)
}

// decodeFrame reads the lane's frame buffer back into dst (grown when
// too small), as the far end of the wire would.
func (l *Lane) decodeFrame(dst []float64) []float64 {
	dst, err := wire.DecodeInto(dst, l.frame)
	if err != nil {
		panic(err) // decoding a frame the lane just encoded cannot fail
	}
	return dst
}
