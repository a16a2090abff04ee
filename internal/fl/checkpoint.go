package fl

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"fedclust/internal/wire"
)

// Checkpoint is everything a round schedule needs to continue after
// process death: the run's identity (method and Env.Identity), the round
// counter, the accumulated Result (history, per-client accuracy,
// CommStats including the per-round ledger), and the method's named
// state sections — model parameters as lossless wire Float64 frames,
// counters and indices as wire state frames, added through a Saver walk.
// The resume contract is bit-exactness: a run restored from a checkpoint
// taken after round r produces, for every subsequent round, exactly the
// bytes an uninterrupted run produces, because no cross-round state
// exists outside what is captured here (client streams are pure
// functions of (seed, client, round); optimizer velocity resets per
// visit; the scenario trace is a pure function of its config and seed)
// and everything else that decides the bits is in the identity.
type Checkpoint struct {
	// Method is the fl.Trainer name the state belongs to.
	Method string
	// ID is the identity of the run that wrote the checkpoint.
	ID Identity
	// Round is the number of completed rounds — the next round index an
	// uninterrupted run would execute — of a schedule of Rounds.
	Round, Rounds int

	vecs map[string][]float64
	ints map[string][]int64
}

// Checkpoint bounds: decode reads files with no more provenance than a
// network peer, so every size is validated before allocation.
const (
	maxCkptMethod   = 128
	maxCkptName     = 256
	maxCkptSections = 1 << 12
	maxCkptVecLen   = 1 << 27
	maxCkptRounds   = 1 << 20
)

// ckptMagic opens every checkpoint file.
var ckptMagic = [4]byte{'F', 'C', 'K', 'P'}

const ckptVersion = 2

// State-frame section kinds within a checkpoint.
const (
	ckptKindMeta = 1
	ckptKindInts = 2
)

// metaWords is the fixed word count of the meta section: rounds, round,
// the identity, vec count, int count.
const metaWords = 2 + idComponents + 2

// Matches verifies the checkpoint continues this exact run: the same
// method and the same identity (Env.Identity). A mismatch would not
// crash — it would silently train a different run — so resume refuses
// instead, naming the first component of the identity that differs.
func (c *Checkpoint) Matches(env *Env, method string) error {
	if c.Method != method {
		return fmt.Errorf("fl: checkpoint holds %s state, resuming %s", c.Method, method)
	}
	id := env.Identity()
	for i := range id {
		if c.ID[i] != id[i] {
			return fmt.Errorf("fl: checkpoint was written under another %s (identity word %#x, environment %#x)",
				identityNames[i], c.ID[i], id[i])
		}
	}
	if c.Round > env.Rounds {
		return fmt.Errorf("fl: checkpoint round %d outside schedule of %d", c.Round, env.Rounds)
	}
	return nil
}

// SetVec stores a named float64 section. The checkpoint owns a copy, so
// live training buffers may keep mutating after the snapshot.
func (c *Checkpoint) SetVec(name string, v []float64) {
	c.putVec(name, append([]float64(nil), v...))
}

// putVec stores v itself: the caller hands over ownership.
func (c *Checkpoint) putVec(name string, v []float64) {
	if c.vecs == nil {
		c.vecs = make(map[string][]float64)
	}
	c.vecs[name] = v
}

// putInts is putVec for int64 sections.
func (c *Checkpoint) putInts(name string, v []int64) {
	if c.ints == nil {
		c.ints = make(map[string][]int64)
	}
	c.ints[name] = v
}

// Vec returns the named float64 section, enforcing length want (want < 0
// accepts any length). Missing sections and length mismatches are errors:
// method state must restore exactly or not at all.
func (c *Checkpoint) Vec(name string, want int) ([]float64, error) {
	v, ok := c.vecs[name]
	if !ok {
		return nil, fmt.Errorf("fl: checkpoint has no %q section", name)
	}
	if want >= 0 && len(v) != want {
		return nil, fmt.Errorf("fl: checkpoint section %q has %d values, want %d", name, len(v), want)
	}
	return v, nil
}

// Ints returns the named int64 section, enforcing length want (want < 0
// accepts any length).
func (c *Checkpoint) Ints(name string, want int) ([]int64, error) {
	v, ok := c.ints[name]
	if !ok {
		return nil, fmt.Errorf("fl: checkpoint has no %q section", name)
	}
	if want >= 0 && len(v) != want {
		return nil, fmt.Errorf("fl: checkpoint section %q has %d values, want %d", name, len(v), want)
	}
	return v, nil
}

// Result snapshot section names.
const (
	secResScalars  = "result/scalars"
	secResPerAcc   = "result/per_client_acc"
	secResHistR    = "result/history/rounds"
	secResHistAcc  = "result/history/acc"
	secResHistLoss = "result/history/loss"
	secResComm     = "result/comm"
	secResCommR    = "result/comm/rounds"
	secResCommUp   = "result/comm/up"
	secResCommDown = "result/comm/down"
	secResCluster  = "result/cluster"
	secResClusters = "result/clusters"
)

// Result lists the accumulated Result — metrics history, per-client
// accuracy, the full CommStats ledger (totals, per-round deltas, and the
// internal snapshot cursors), and cluster bookkeeping. A load replaces
// res's accumulated state. Method and Comm.Pricing are run configuration
// the driver derives from the environment, not state: they are left as
// set — wiping Pricing would re-price every post-resume round as dense
// Float64 and fork the byte ledger from the uninterrupted run.
func (s *Sections) Result(res *Result) {
	s.Floats(secResScalars, &res.FinalAcc, &res.FinalLoss)
	s.vec(secResPerAcc, &res.PerClientAcc, -1)

	n := len(res.History)
	hr, ha, hl := make([]int, n), make([]float64, n), make([]float64, n)
	for i, m := range res.History {
		hr[i], ha[i], hl[i] = m.Round, m.MeanAcc, m.MeanLoss
	}
	ints(s, secResHistR, &hr, -1)
	s.vec(secResHistAcc, &ha, len(hr))
	s.vec(secResHistLoss, &hl, len(hr))

	cm := &res.Comm
	scalars(s, secResComm, &cm.UpBytes, &cm.DownBytes, &cm.snapUp, &cm.snapDown, &cm.MeasuredUp, &cm.MeasuredDown)
	n = len(cm.PerRound)
	cr, cu, cd := make([]int, n), make([]int64, n), make([]int64, n)
	for i, r := range cm.PerRound {
		cr[i], cu[i], cd[i] = r.Round, r.UpBytes, r.DownBytes
	}
	ints(s, secResCommR, &cr, -1)
	ints(s, secResCommUp, &cu, len(cr))
	ints(s, secResCommDown, &cd, len(cr))

	form, hasClusters := int64(res.ClusterFormationRound), int64(0)
	if res.Clusters != nil {
		hasClusters = 1
	}
	scalars(s, secResCluster, &form, &res.ClusterFormationUpBytes, &hasClusters)
	if hasClusters != 0 {
		ints(s, secResClusters, &res.Clusters, -1)
	}

	// The struct-of-arrays sections above only become History, PerRound
	// and the cluster fields again once every one of them has loaded.
	if !s.load || s.Err != nil {
		return
	}
	res.History = res.History[:0]
	for i := range hr {
		res.History = append(res.History, RoundMetrics{Round: hr[i], MeanAcc: ha[i], MeanLoss: hl[i]})
	}
	cm.PerRound = cm.PerRound[:0]
	for i := range cr {
		cm.PerRound = append(cm.PerRound, RoundComm{Round: cr[i], UpBytes: cu[i], DownBytes: cd[i]})
	}
	res.ClusterFormationRound = int(form)
	if hasClusters == 0 {
		res.Clusters = nil
	}
}

// Encode serializes the checkpoint. The layout is deterministic
// (sections sorted by name) and every section rides an internal/wire
// frame — Float64 parameter frames for float sections, state frames for
// word sections — under one whole-file crc32:
//
//	"FCKP" | u32 version | u16 len | method |
//	meta state frame (kind 1) |
//	nVecs × (u16 len | name | Float64 frame) |
//	nInts × (u16 len | name | state frame kind 2) |
//	crc32 of everything before it
func (c *Checkpoint) Encode() []byte {
	vecNames := sortedKeys(c.vecs)
	intNames := sortedKeys(c.ints)
	out := append([]byte(nil), ckptMagic[:]...)
	out = appendU32(out, ckptVersion)
	out = appendU16(out, uint16(len(c.Method)))
	out = append(out, c.Method...)
	meta := make([]uint64, 0, metaWords)
	meta = append(meta, uint64(c.Rounds), uint64(c.Round))
	meta = append(meta, c.ID[:]...)
	meta = append(meta, uint64(len(vecNames)), uint64(len(intNames)))
	out = wire.AppendStateFrame(out, ckptKindMeta, meta)
	for _, name := range vecNames {
		out = appendU16(out, uint16(len(name)))
		out = append(out, name...)
		out = wire.EncodeInto(out, wire.Float64, c.vecs[name])
	}
	for _, name := range intNames {
		out = appendU16(out, uint16(len(name)))
		out = append(out, name...)
		words := make([]uint64, len(c.ints[name]))
		for i, v := range c.ints[name] {
			words[i] = uint64(v)
		}
		out = wire.AppendStateFrame(out, ckptKindInts, words)
	}
	return appendU32(out, crc32IEEE(out))
}

// DecodeCheckpoint parses an Encode-produced checkpoint. It never
// panics: truncation, corruption, hostile counts, and duplicate or
// oversized sections are all errors — a checkpoint file deserves no more
// trust than a frame off a socket.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < len(ckptMagic)+4+2+4 {
		return nil, fmt.Errorf("fl: checkpoint truncated (%d bytes)", len(b))
	}
	if [4]byte(b[:4]) != ckptMagic {
		return nil, fmt.Errorf("fl: not a checkpoint (bad magic)")
	}
	body, sum := b[:len(b)-4], u32(b[len(b)-4:])
	if crc32IEEE(body) != sum {
		return nil, fmt.Errorf("fl: checkpoint checksum mismatch")
	}
	rest := body[4:]
	if v := u32(rest); v != ckptVersion {
		return nil, fmt.Errorf("fl: checkpoint version %d, want %d", v, ckptVersion)
	}
	rest = rest[4:]
	method, rest, err := takeName(rest, maxCkptMethod)
	if err != nil {
		return nil, fmt.Errorf("fl: checkpoint method: %w", err)
	}
	n, err := wire.StateFrameLen(rest, len(rest))
	if err != nil {
		return nil, fmt.Errorf("fl: checkpoint meta: %w", err)
	}
	kind, meta, err := wire.DecodeStateFrame(rest[:n])
	if err != nil {
		return nil, fmt.Errorf("fl: checkpoint meta: %w", err)
	}
	if kind != ckptKindMeta || len(meta) != metaWords {
		return nil, fmt.Errorf("fl: checkpoint meta section kind %d / %d words malformed", kind, len(meta))
	}
	rest = rest[n:]
	c := &Checkpoint{Method: method, Rounds: int(meta[0]), Round: int(meta[1])}
	copy(c.ID[:], meta[2:])
	nVecs, nInts := meta[2+idComponents], meta[3+idComponents]
	if c.Rounds < 0 || c.Rounds > maxCkptRounds || c.Round < 0 || c.Round > c.Rounds {
		return nil, fmt.Errorf("fl: checkpoint round %d of %d out of bounds", c.Round, c.Rounds)
	}
	if nVecs > maxCkptSections || nInts > maxCkptSections {
		return nil, fmt.Errorf("fl: checkpoint claims %d+%d sections, limit %d", nVecs, nInts, maxCkptSections)
	}
	c.vecs = make(map[string][]float64, nVecs)
	for i := uint64(0); i < nVecs; i++ {
		var name string
		name, rest, err = takeName(rest, maxCkptName)
		if err != nil {
			return nil, fmt.Errorf("fl: checkpoint vec section %d: %w", i, err)
		}
		if _, dup := c.vecs[name]; dup {
			return nil, fmt.Errorf("fl: duplicate checkpoint section %q", name)
		}
		n, err := wire.FrameLen(rest, len(rest))
		if err != nil {
			return nil, fmt.Errorf("fl: checkpoint section %q: %w", name, err)
		}
		if cdc, _ := wire.FrameCodec(rest[:n]); cdc != wire.Float64 {
			return nil, fmt.Errorf("fl: checkpoint section %q uses lossy codec %s", name, cdc)
		}
		vec, err := wire.Decode(rest[:n])
		if err != nil {
			return nil, fmt.Errorf("fl: checkpoint section %q: %w", name, err)
		}
		if len(vec) > maxCkptVecLen {
			return nil, fmt.Errorf("fl: checkpoint section %q has %d values, limit %d", name, len(vec), maxCkptVecLen)
		}
		c.vecs[name] = vec
		rest = rest[n:]
	}
	c.ints = make(map[string][]int64, nInts)
	for i := uint64(0); i < nInts; i++ {
		var name string
		name, rest, err = takeName(rest, maxCkptName)
		if err != nil {
			return nil, fmt.Errorf("fl: checkpoint int section %d: %w", i, err)
		}
		if _, dup := c.ints[name]; dup {
			return nil, fmt.Errorf("fl: duplicate checkpoint section %q", name)
		}
		n, err := wire.StateFrameLen(rest, len(rest))
		if err != nil {
			return nil, fmt.Errorf("fl: checkpoint section %q: %w", name, err)
		}
		kind, words, err := wire.DecodeStateFrame(rest[:n])
		if err != nil {
			return nil, fmt.Errorf("fl: checkpoint section %q: %w", name, err)
		}
		if kind != ckptKindInts {
			return nil, fmt.Errorf("fl: checkpoint section %q has kind %d, want %d", name, kind, ckptKindInts)
		}
		vals := make([]int64, len(words))
		for j, w := range words {
			vals[j] = int64(w)
		}
		c.ints[name] = vals
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("fl: checkpoint has %d trailing bytes", len(rest))
	}
	return c, nil
}

// WriteFile atomically persists the checkpoint: encode, write to a
// temporary sibling, rename over path — a crash mid-write leaves the
// previous checkpoint intact.
func (c *Checkpoint) WriteFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(c.Encode())
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// ReadCheckpointFile loads and decodes a checkpoint file.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(b)
}

// CheckpointPlan attaches checkpointing to an environment's runs. The
// zero plan is inert; Env.Ckpt == nil disables the machinery entirely.
type CheckpointPlan struct {
	// Resume, when non-nil, is the checkpoint the next matching run
	// continues from: the driver restores the Result, hands the method
	// its state sections, and starts the loop at Resume.Round.
	Resume *Checkpoint
	// Every emits a checkpoint after every Every-th completed round
	// (0 = only on Trigger).
	Every int
	// Trigger is polled after each round; returning true forces a
	// checkpoint (the control plane's on-demand snapshot).
	Trigger func() bool
	// Sink receives each emitted checkpoint — a self-contained copy the
	// sink owns (write it to disk, ship it, inspect it).
	Sink func(*Checkpoint)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// takeName pops a u16-length-prefixed name off the buffer.
func takeName(b []byte, maxLen int) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("name length truncated")
	}
	n := int(u16(b))
	if n == 0 || n > maxLen {
		return "", nil, fmt.Errorf("name of %d bytes out of (0, %d]", n, maxLen)
	}
	if len(b) < 2+n {
		return "", nil, fmt.Errorf("name truncated (%d of %d bytes)", len(b)-2, n)
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func u16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func u32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func crc32IEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
