package fl

import (
	"fmt"
	"math"

	"fedclust/internal/wire"
)

// ErrorFeedback is the per-client residual accumulator behind sparse
// uplinks (Karimireddy et al.'s EF pattern): each round the client
// transmits the top-k coordinates of (trained + residual) ranked by
// distance from the broadcast start, and whatever the sparse frame
// failed to carry becomes the next round's residual instead of being
// lost. Residuals live with whoever runs the client's local pass — the
// engine for in-process clients, the node Service for remote ones — and
// ride fl.Checkpoint named sections so compressed runs resume
// bit-identically.
//
// Visit is safe for concurrent calls with distinct client ids: each
// client owns a disjoint residual row and all transient state is in the
// caller's EFScratch.
type ErrorFeedback struct {
	Codec wire.Codec // sparse uplink codec (TopK or TopKQuant8)
	Frac  float64    // normalized kept fraction in (0, 1]

	// res is one residual row per client, each numParams long. A row is
	// zero until its client first uplinks.
	res [][]float64
}

// EFScratch holds one worker's reusable buffers for Visit; zero value
// ready, zero allocations once warm.
type EFScratch struct {
	target []float64 // trained + residual
	scores []float64 // |target - start|, TopKSelect's input
	sel    []float64 // TopKSelect's scratch: survivors, then their quickselect copy
	idx    []uint32  // TopKSelect's survivor indices, compacted to the kept ones
	vals   []float64 // kept raw values
}

// NewErrorFeedback builds an accumulator for nClients clients of
// numParams-vectors. The codec must be sparse and frac already
// normalized (NormalizeTopKFrac).
func NewErrorFeedback(c wire.Codec, frac float64, nClients, numParams int) *ErrorFeedback {
	if !c.Sparse() {
		panic(fmt.Sprintf("fl: error feedback with dense codec %s", c))
	}
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("fl: error feedback frac %g outside (0,1]", frac))
	}
	res := make([][]float64, nClients)
	backing := make([]float64, nClients*numParams)
	for i := range res {
		res[i] = backing[i*numParams : (i+1)*numParams : (i+1)*numParams]
	}
	return &ErrorFeedback{Codec: c, Frac: frac, res: res}
}

// NumParams returns the residual row width.
func (ef *ErrorFeedback) NumParams() int {
	if len(ef.res) == 0 {
		return 0
	}
	return len(ef.res[0])
}

// Reset zeroes every residual — a fresh training run. The engine calls
// this whenever a cached environment is rebound to a new method run;
// resume then overwrites the rows from the checkpoint.
func (ef *ErrorFeedback) Reset() {
	for _, r := range ef.res {
		for i := range r {
			r[i] = 0
		}
	}
}

// Visit runs one client uplink through the accumulator: it appends the
// sparse frame for client's trained vector `out` (relative to the
// broadcast `start`) to dst, rewrites `out` in place to the exact
// reconstruction the receiver will hold after applying that frame, and
// folds the dropped/quantized remainder into the client's residual.
// Lane.appendUplink is its one caller: in-process visits pass the
// lane's throwaway frame buffer, a node passes its outgoing reply.
//
// The reconstruction is obtained by decoding the frame just encoded —
// not by mirroring its arithmetic — so sender and receiver states are
// bit-identical by construction, for any codec. A coordinate the frame
// does not carry reconstructs to start, so its residual target − start
// is written in the first pass; only the k kept coordinates are
// revisited once the frame is applied.
func (ef *ErrorFeedback) Visit(dst []byte, client int, start, out []float64, s *EFScratch) []byte {
	n := len(out)
	if len(start) != n {
		panic(fmt.Sprintf("fl: error feedback start len %d, out len %d", len(start), n))
	}
	res := ef.res[client]
	if len(res) != n {
		panic(fmt.Sprintf("fl: error feedback residual len %d, vector len %d", len(res), n))
	}
	if cap(s.target) < n {
		s.target = make([]float64, n)
		s.scores = make([]float64, n)
	}
	target, scores, start := s.target[:n], s.scores[:n], start[:n]
	for i, o := range out {
		t := o + res[i]
		target[i] = t
		d := t - start[i]
		scores[i] = math.Abs(d)
		res[i] = finiteOrZero(d)
	}
	k := wire.TopKCount(n, ef.Frac)
	s.idx, s.sel = wire.TopKSelect(s.idx, s.sel, scores, k)
	if cap(s.vals) < len(s.idx) {
		s.vals = make([]float64, 0, len(s.idx))
	}
	s.vals = s.vals[:0]
	for _, ix := range s.idx {
		s.vals = append(s.vals, target[ix])
	}
	mark := len(dst)
	dst = wire.EncodeSparseInto(dst, ef.Codec, n, s.idx, s.vals)
	copy(out, start)
	if err := wire.ApplySparseInto(out, dst[mark:]); err != nil {
		panic(err) // decoding a frame we just encoded cannot fail
	}
	for _, ix := range s.idx {
		res[ix] = finiteOrZero(target[ix] - out[ix])
	}
	return dst
}

// finiteOrZero is v, or 0 when v is NaN or ±Inf: a non-finite residual
// would compound forever.
func finiteOrZero(v float64) float64 {
	if !isFinite(v) {
		return 0
	}
	return v
}

// isFinite reports whether v is neither NaN nor ±Inf: v − v is 0 for a
// finite v and NaN otherwise.
func isFinite(v float64) bool { return v-v == 0 }

// Checkpoint section names for error-feedback state; the engine writes
// them alongside its other driver sections.
const (
	SecEFMeta = "ef/meta"
	SecEFRes  = "ef/residuals"
)

// State lists the accumulator's identity and residual rows for a
// checkpoint walk. A load refuses state written under another codec,
// kept fraction or shape — residuals computed under a different
// quantizer are not this run's residuals.
func (ef *ErrorFeedback) State(s *Sections) {
	want := [4]int64{int64(ef.Codec), int64(math.Float64bits(ef.Frac)), int64(len(ef.res)), int64(ef.NumParams())}
	got := want
	scalars(s, SecEFMeta, &got[0], &got[1], &got[2], &got[3])
	if got != want {
		s.Fail(fmt.Errorf("fl: checkpoint error-feedback state is %s frac %g over %d×%d, run has %s frac %g over %d×%d",
			wire.Codec(got[0]), math.Float64frombits(uint64(got[1])), got[2], got[3],
			ef.Codec, ef.Frac, want[2], want[3]))
	}
	s.Vecs(SecEFRes, ef.res)
}
