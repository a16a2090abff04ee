package fl

// Checkpoint codec tests. The format promises two things: a checkpoint
// round-trips bit-exactly (Encode is deterministic, Decode restores every
// field and section), and decoding is hostile-safe (truncated, corrupted,
// or adversarially crafted bytes produce errors, never panics or
// unbounded allocations). Both are exercised here; FuzzDecodeCheckpoint
// extends the hostile side with a checked-in corpus.

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fullCheckpoint builds a checkpoint exercising every section type and
// a Result with every field populated.
func fullCheckpoint(t testing.TB) *Checkpoint {
	c := &Checkpoint{Method: "FedAvg", ID: Identity{1, 2, 3, 4, 5, 6, 7, 0xdeadbeef}, Round: 7, Rounds: 10}
	c.SetVec("global", []float64{1.5, -2.25, math.Pi})
	c.SetVec("empty", nil)
	c.putInts("counters", []int64{-1, 0, 7})
	c.putInts("labels", []int64{0, 1, 0, 2, 1})
	res := &Result{
		Method:       "FedAvg",
		FinalAcc:     0.875,
		FinalLoss:    0.125,
		PerClientAcc: []float64{0.5, 0.75, 1, 0.25, 0.875},
		History: []RoundMetrics{
			{Round: 1, MeanAcc: 0.5, MeanLoss: 1.2},
			{Round: 3, MeanAcc: 0.7, MeanLoss: 0.8},
		},
		Comm: CommStats{
			UpBytes: 1000, DownBytes: 2000,
			snapUp: 900, snapDown: 1800,
			MeasuredUp: 400, MeasuredDown: 800,
			PerRound: []RoundComm{{Round: 0, UpBytes: 500, DownBytes: 1000}},
		},
		ClusterFormationRound:   2,
		ClusterFormationUpBytes: 333,
		Clusters:                []int{0, 0, 1, 1, 2},
	}
	c.Saver().Result(res)
	return c
}

func TestCheckpointEncodeDeterministic(t *testing.T) {
	a, b := fullCheckpoint(t).Encode(), fullCheckpoint(t).Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same checkpoint differ")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	orig := fullCheckpoint(t)
	got, err := DecodeCheckpoint(orig.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Method != orig.Method || got.ID != orig.ID || got.Rounds != orig.Rounds || got.Round != orig.Round {
		t.Fatalf("identity fields drifted:\n got  %+v\n want %+v", got, orig)
	}
	for name, want := range orig.vecs {
		v, err := got.Vec(name, len(want))
		if err != nil {
			t.Fatalf("vec %q: %v", name, err)
		}
		for i := range want {
			if math.Float64bits(v[i]) != math.Float64bits(want[i]) {
				t.Fatalf("vec %q[%d]: %v != %v", name, i, v[i], want[i])
			}
		}
	}
	for name, want := range orig.ints {
		v, err := got.Ints(name, len(want))
		if err != nil {
			t.Fatalf("ints %q: %v", name, err)
		}
		for i := range want {
			if v[i] != want[i] {
				t.Fatalf("ints %q[%d]: %d != %d", name, i, v[i], want[i])
			}
		}
	}
	// Re-encode of the decoded checkpoint must be byte-identical: decode
	// keeps exactly the encoded state, nothing synthesized or dropped.
	if !bytes.Equal(got.Encode(), orig.Encode()) {
		t.Fatal("decode → encode is not byte-identical")
	}
}

func TestCheckpointResultRoundTrip(t *testing.T) {
	c := fullCheckpoint(t)
	got, err := DecodeCheckpoint(c.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var res Result
	l := got.Loader()
	l.Result(&res)
	if l.Err != nil {
		t.Fatalf("restore: %v", l.Err)
	}
	if res.FinalAcc != 0.875 || res.FinalLoss != 0.125 {
		t.Errorf("scalars: acc=%v loss=%v", res.FinalAcc, res.FinalLoss)
	}
	if len(res.PerClientAcc) != 5 || res.PerClientAcc[3] != 0.25 {
		t.Errorf("per-client acc: %v", res.PerClientAcc)
	}
	if len(res.History) != 2 || res.History[1] != (RoundMetrics{Round: 3, MeanAcc: 0.7, MeanLoss: 0.8}) {
		t.Errorf("history: %+v", res.History)
	}
	cm := res.Comm
	if cm.UpBytes != 1000 || cm.DownBytes != 2000 || cm.snapUp != 900 || cm.snapDown != 1800 ||
		cm.MeasuredUp != 400 || cm.MeasuredDown != 800 {
		t.Errorf("comm ledger: %+v", cm)
	}
	if len(cm.PerRound) != 1 || cm.PerRound[0] != (RoundComm{Round: 0, UpBytes: 500, DownBytes: 1000}) {
		t.Errorf("per-round comm: %+v", cm.PerRound)
	}
	if res.ClusterFormationRound != 2 || res.ClusterFormationUpBytes != 333 {
		t.Errorf("cluster bookkeeping: %+v", res)
	}
	if len(res.Clusters) != 5 || res.Clusters[4] != 2 {
		t.Errorf("clusters: %v", res.Clusters)
	}
}

func TestCheckpointResultRoundTripNilClusters(t *testing.T) {
	c := &Checkpoint{Method: "FedAvg", Round: 1, Rounds: 2}
	c.Saver().Result(&Result{ClusterFormationRound: -1})
	var res Result
	res.Clusters = []int{9, 9} // must be cleared, not kept
	l := c.Loader()
	l.Result(&res)
	if l.Err != nil {
		t.Fatalf("restore: %v", l.Err)
	}
	if res.Clusters != nil {
		t.Errorf("clusters not cleared: %v", res.Clusters)
	}
	if res.ClusterFormationRound != -1 {
		t.Errorf("formation round: %d", res.ClusterFormationRound)
	}
}

// sectionsState is one buffer of every kind a Sections walk lists.
type sectionsState struct {
	vec      []float64
	rows     [][]float64
	a, b     float64
	ids      []int
	queue    []int
	flags    []bool
	x, y     int
	listOnce func(s *Sections)
}

func newSectionsState(queueLen int) *sectionsState {
	st := &sectionsState{
		vec: make([]float64, 3), rows: [][]float64{make([]float64, 2), make([]float64, 2)},
		ids: make([]int, 4), queue: make([]int, queueLen), flags: make([]bool, 3),
	}
	st.listOnce = func(s *Sections) {
		s.Vec("vec", st.vec)
		s.Vecs("rows", st.rows)
		s.Floats("floats", &st.a, &st.b)
		s.IntsIn("ids", st.ids, -1, 3)
		s.VarIntsIn("queue", &st.queue, 0, 10)
		s.Bools("flags", st.flags)
		s.Scalars("scalars", &st.x, &st.y)
	}
	return st
}

// TestSectionsRoundTrip: one list of buffers, walked by a Saver, encoded,
// decoded and walked by a Loader into fresh buffers, is the identity; a
// missing section, a length mismatch or an out-of-range index sets Err,
// names the section, and leaves every later call inert.
func TestSectionsRoundTrip(t *testing.T) {
	src := newSectionsState(2)
	src.vec = []float64{1.5, -2.25, math.Pi}
	src.rows = [][]float64{{1, 2}, {3, 4}}
	src.a, src.b = 0.5, -0.125
	src.ids = []int{-1, 0, 2, 1}
	src.queue = []int{9, 0}
	src.flags = []bool{true, false, true}
	src.x, src.y = 7, -3
	c := &Checkpoint{Method: "M", Round: 1, Rounds: 2}
	save := c.Saver()
	src.listOnce(save)
	if save.Err != nil {
		t.Fatalf("saving walk failed: %v", save.Err)
	}
	c, err := DecodeCheckpoint(c.Encode())
	if err != nil {
		t.Fatal(err)
	}

	dst := newSectionsState(5) // the queue's length is state: the load resizes it
	load := c.Loader()
	dst.listOnce(load)
	if load.Err != nil {
		t.Fatalf("loading walk failed: %v", load.Err)
	}
	src.listOnce, dst.listOnce = nil, nil
	if !reflect.DeepEqual(src, dst) {
		t.Fatalf("round trip is not the identity:\n got  %+v\n want %+v", dst, src)
	}

	for name, tc := range map[string]struct {
		tamper func(c *Checkpoint)
		want   string
	}{
		"missing section": {func(c *Checkpoint) { delete(c.vecs, "rows") }, `"rows"`},
		"length mismatch": {func(c *Checkpoint) { c.SetVec("floats", []float64{1}) }, `"floats"`},
		"index below":     {func(c *Checkpoint) { c.putInts("ids", []int64{-2, 0, 0, 0}) }, `"ids"`},
		"index above":     {func(c *Checkpoint) { c.putInts("queue", []int64{10}) }, `"queue"`},
		"flag not 0/1":    {func(c *Checkpoint) { c.putInts("flags", []int64{0, 2, 0}) }, `"flags"`},
	} {
		bad, _ := DecodeCheckpoint(c.Encode())
		tc.tamper(bad)
		dst := newSectionsState(0)
		load := bad.Loader()
		dst.listOnce(load)
		if load.Err == nil || !strings.Contains(load.Err.Error(), tc.want) {
			t.Errorf("%s: Err = %v, want one naming %s", name, load.Err, tc.want)
		}
		// Sections listed after the failure keep their fresh zero values.
		if dst.x != 0 || dst.y != 0 {
			t.Errorf("%s: walk kept loading after its failure: scalars = %d, %d", name, dst.x, dst.y)
		}
	}
}

// TestCheckpointMatches: a checkpoint matches the run that wrote it, and
// Matches refuses another method and a round past the schedule. A
// checkpoint in the version 1 format, whose header held separate
// identity fields, never reaches Matches: decode refuses its version.
// TestCheckpointMatchesIdentity covers the identity itself.
func TestCheckpointMatches(t *testing.T) {
	env := tinyEnv(5, 42)
	base := func() *Checkpoint {
		return &Checkpoint{Method: "FedAvg", ID: env.Identity(), Round: 2, Rounds: env.Rounds}
	}
	if err := base().Matches(env, "FedAvg"); err != nil {
		t.Fatalf("self-match failed: %v", err)
	}
	if err := base().Matches(env, "CFL"); err == nil || !strings.Contains(err.Error(), "holds FedAvg state") {
		t.Errorf("another method: Matches = %v", err)
	}
	past := base()
	past.Round, past.Rounds = env.Rounds+1, env.Rounds+1
	if err := past.Matches(env, "FedAvg"); err == nil || !strings.Contains(err.Error(), "outside schedule") {
		t.Errorf("a round past the schedule: Matches = %v", err)
	}

	v1 := base().Encode()
	v1[4] = 1
	body := v1[:len(v1)-4]
	if _, err := DecodeCheckpoint(appendU32(body, crc32IEEE(body))); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("a version 1 checkpoint: decode error %v, want a version error", err)
	}
}

// TestDecodeCheckpointTruncation: every proper prefix must fail cleanly.
func TestDecodeCheckpointTruncation(t *testing.T) {
	b := fullCheckpoint(t).Encode()
	for i := 0; i < len(b); i++ {
		if _, err := DecodeCheckpoint(b[:i]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", i, len(b))
		}
	}
}

// TestDecodeCheckpointCorruption: the whole-file crc32 catches any
// single-byte flip anywhere in the file, including the checksum itself.
func TestDecodeCheckpointCorruption(t *testing.T) {
	orig := fullCheckpoint(t).Encode()
	b := make([]byte, len(orig))
	for i := range orig {
		copy(b, orig)
		b[i] ^= 0x40
		if _, err := DecodeCheckpoint(b); err == nil {
			t.Fatalf("flipping byte %d of %d decoded without error", i, len(orig))
		}
	}
}

// TestDecodeCheckpointDuplicateSection: a crafted file repeating a
// section name (impossible via the API, trivial for an attacker) is
// rejected even with a valid checksum.
func TestDecodeCheckpointDuplicateSection(t *testing.T) {
	c := &Checkpoint{Method: "M", Round: 1, Rounds: 2}
	c.SetVec("aa", []float64{1})
	c.SetVec("ab", []float64{2})
	b := fullEncodeReplace(t, c, []byte("ab"), []byte("aa"))
	if _, err := DecodeCheckpoint(b); err == nil {
		t.Fatal("duplicate section name decoded without error")
	}
}

// fullEncodeReplace encodes c, substitutes the first occurrence of old
// with new (same length), and re-stamps a valid trailing crc — the
// canonical way to craft a "validly signed" hostile file.
func fullEncodeReplace(t *testing.T, c *Checkpoint, old, new []byte) []byte {
	t.Helper()
	b := c.Encode()
	i := bytes.Index(b, old)
	if i < 0 {
		t.Fatalf("pattern %q not found in encoding", old)
	}
	copy(b[i:], new)
	body := b[:len(b)-4]
	return appendU32(body, crc32IEEE(body))
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	orig := fullCheckpoint(t)
	if err := orig.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got.Encode(), orig.Encode()) {
		t.Fatal("file round-trip drifted")
	}
	// Overwrite must be atomic-replace, not append.
	if err := orig.WriteFile(path); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if got, err = ReadCheckpointFile(path); err != nil || !bytes.Equal(got.Encode(), orig.Encode()) {
		t.Fatalf("rewrite round-trip drifted: %v", err)
	}
}

// FuzzDecodeCheckpoint: arbitrary bytes must never panic the decoder,
// anything it accepts must re-encode to a decodable equal form, and
// Matches against the fuzz environment must return nil or an error,
// never panic, and return nil only for that environment's identity.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid := fullCheckpoint(f).Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("FCKP"))
	f.Add([]byte{})
	env := tinyEnv(2, 3)
	id := env.Identity()
	tiny := &Checkpoint{Method: "M", ID: id, Round: 1, Rounds: env.Rounds}
	f.Add(tiny.Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := DecodeCheckpoint(b)
		if err != nil {
			return
		}
		again, err := DecodeCheckpoint(c.Encode())
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode cleanly: %v", err)
		}
		if !bytes.Equal(again.Encode(), c.Encode()) {
			t.Fatal("re-encode is not a fixed point")
		}
		if err := c.Matches(env, c.Method); err == nil && c.ID != id {
			t.Fatalf("Matches accepted identity %x, environment %x", c.ID, id)
		}
	})
}

func BenchmarkCheckpointEncode(b *testing.B) {
	c := &Checkpoint{Method: "FedAvg", Round: 50, Rounds: 100}
	vec := make([]float64, 4096)
	for i := range vec {
		vec[i] = float64(i) * 0.001
	}
	c.SetVec("global", vec)
	c.SetVec("stale/cache", vec)
	c.putInts("stale/cached_at", make([]int64, 64))
	c.Saver().Result(&Result{PerClientAcc: make([]float64, 64)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes = c.Encode()
	}
	b.SetBytes(int64(len(sinkBytes)))
}

func BenchmarkCheckpointDecode(b *testing.B) {
	c := &Checkpoint{Method: "FedAvg", Round: 50, Rounds: 100}
	vec := make([]float64, 4096)
	for i := range vec {
		vec[i] = float64(i) * 0.001
	}
	c.SetVec("global", vec)
	c.SetVec("stale/cache", vec)
	c.putInts("stale/cached_at", make([]int64, 64))
	c.Saver().Result(&Result{PerClientAcc: make([]float64, 64)})
	enc := c.Encode()
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		sinkCkpt, err = DecodeCheckpoint(enc)
		if err != nil {
			b.Fatal(err)
		}
	}
}

var (
	sinkBytes []byte
	sinkCkpt  *Checkpoint
)
