package fl

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"math"

	"fedclust/internal/data"
	"fedclust/internal/rng"
)

// Identity is what makes two runs the same run: one FNV-1a 64 word per
// component of the environment that decides a run's bits. A checkpoint
// records it, and Checkpoint.Matches refuses a resume under any other
// identity, naming the first component that differs.
//
// Env.Workers, Remote, Observer and Ckpt are left out on purpose: no
// result depends on them (the worker-count, distributed and resume pins
// hold across them). Method-specific configuration that lives in the
// trainer rather than the Env — IFCA's K, FedClust's Config — is not
// covered.
type Identity [idComponents]uint64

// Identity components, in the order Matches looks for a difference.
const (
	idSchedule   = iota // seed, rng root, rounds, population, EvalEvery, EvalBatch
	idData              // every client's train and test features and labels
	idArch              // layer shapes and the canonical initial parameters
	idLocal             // LocalConfig
	idDType             // DType
	idCodec             // Codec and TopKFrac
	idAggregator        // AggregatorName
	idScenario          // the scenario's Fingerprint (0 without one)
	idComponents
)

// identityNames names each component in Matches' refusals.
var identityNames = [idComponents]string{
	"schedule", "data", "architecture", "local config", "dtype", "codec", "aggregator", "scenario",
}

// Identity hashes the run identity of the environment. It reads every
// client's data and builds the initial model, so the round driver
// computes it once per run, and only when checkpointing is attached.
func (e *Env) Identity() Identity {
	var id Identity
	h := idHash{h: fnv.New64a(), buf: make([]byte, 0, 4096)}
	var root rng.Rng
	root.Reseed(e.Seed)
	st := root.State()
	id[idSchedule] = h.sum(append(st[:], e.Seed, uint64(e.Rounds), uint64(len(e.Clients)), uint64(e.EvalEvery), uint64(e.EvalBatch))...)
	h.clients(e.Clients)
	id[idData] = h.sum()
	m := e.NewModel()
	h.str(m.String())
	h.floats(m.ParamData())
	id[idArch] = h.sum()
	id[idLocal] = h.sum(uint64(e.Local.Epochs), uint64(e.Local.BatchSize), math.Float64bits(e.Local.LR),
		math.Float64bits(e.Local.Momentum), math.Float64bits(e.Local.WeightDecay), math.Float64bits(e.Local.ProxMu))
	id[idDType] = h.sum(uint64(e.DType))
	id[idCodec] = h.sum(uint64(e.Codec), math.Float64bits(e.TopKFrac))
	h.str(AggregatorName(e.Aggregator))
	id[idAggregator] = h.sum()
	var fp uint64
	if sc := e.Participation.Scenario; sc != nil {
		fp = sc.Fingerprint()
	}
	id[idScenario] = h.sum(fp)
	return id
}

// idHash feeds one component at a time into an FNV-1a 64, each word
// little-endian, through a buffer so a client's data costs few Writes.
type idHash struct {
	h   hash.Hash64
	buf []byte
}

func (h *idHash) word(w uint64) {
	if len(h.buf) == cap(h.buf) {
		h.flush()
	}
	h.buf = binary.LittleEndian.AppendUint64(h.buf, w)
}

func (h *idHash) floats(xs []float64) {
	for _, x := range xs {
		h.word(math.Float64bits(x))
	}
}

// clients feeds every client's train and test split: its shape, its
// feature bits and its labels.
func (h *idHash) clients(cs []*Client) {
	for _, c := range cs {
		for _, d := range [2]*data.Dataset{c.Train, c.Test} {
			h.word(uint64(d.Len()))
			h.word(uint64(d.Dim()))
			h.floats(d.X.Data)
			for _, y := range d.Y {
				h.word(uint64(y))
			}
		}
	}
}

func (h *idHash) str(s string) {
	h.flush()
	io.WriteString(h.h, s) // a hash.Hash Write never fails
}

func (h *idHash) flush() {
	h.h.Write(h.buf)
	h.buf = h.buf[:0]
}

// sum feeds ws, closes the component and starts the next one.
func (h *idHash) sum(ws ...uint64) uint64 {
	for _, w := range ws {
		h.word(w)
	}
	h.flush()
	s := h.h.Sum64()
	h.h.Reset()
	return s
}
