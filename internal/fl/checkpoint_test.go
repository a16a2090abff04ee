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

	"fedclust/internal/rng"
	"fedclust/internal/wire"
)

// testEnv is a minimal environment for checkpoint identity checks: only
// len(Clients), Seed, and Rounds matter to Matches/NewCheckpoint.
func testEnv(seed uint64, rounds, nClients int) *Env {
	return &Env{Clients: make([]*Client, nClients), Seed: seed, Rounds: rounds}
}

// fullCheckpoint builds a checkpoint exercising every section type and
// a Result with every field populated.
func fullCheckpoint(t testing.TB) *Checkpoint {
	env := testEnv(42, 10, 5)
	c := NewCheckpoint(env, "FedAvg", 7, 3, 0xdeadbeef)
	c.SetVec("global", []float64{1.5, -2.25, math.Pi})
	c.SetVec("empty", nil)
	c.SetInts("counters", []int64{-1, 0, 7})
	c.SetInts("labels", []int64{0, 1, 0, 2, 1})
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
	if got.Method != orig.Method || got.SpecHash != orig.SpecHash ||
		got.Seed != orig.Seed || got.Rounds != orig.Rounds || got.Round != orig.Round ||
		got.NClients != orig.NClients || got.NumParams != orig.NumParams ||
		got.RngRoot != orig.RngRoot || got.ScenarioFP != orig.ScenarioFP {
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
	env := testEnv(1, 2, 2)
	c := NewCheckpoint(env, "FedAvg", 1, 1, 0)
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
	c := NewCheckpoint(testEnv(1, 2, 2), "M", 1, 1, 0)
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
		"index below":     {func(c *Checkpoint) { c.SetInts("ids", []int64{-2, 0, 0, 0}) }, `"ids"`},
		"index above":     {func(c *Checkpoint) { c.SetInts("queue", []int64{10}) }, `"queue"`},
		"flag not 0/1":    {func(c *Checkpoint) { c.SetInts("flags", []int64{0, 2, 0}) }, `"flags"`},
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

func TestCheckpointMatches(t *testing.T) {
	env := testEnv(42, 10, 5)
	base := func() *Checkpoint { return NewCheckpoint(env, "FedAvg", 7, 3, 0) }
	if err := base().Matches(env, "FedAvg", 3); err != nil {
		t.Fatalf("self-match failed: %v", err)
	}
	if err := base().Matches(env, "FedAvg", 0); err != nil {
		t.Fatalf("numParams=0 must skip the shape check: %v", err)
	}
	cases := []struct {
		name   string
		tamper func(c *Checkpoint) (*Env, string, int)
	}{
		{"method", func(c *Checkpoint) (*Env, string, int) { return env, "CFL", 3 }},
		{"seed", func(c *Checkpoint) (*Env, string, int) { return testEnv(43, 10, 5), "FedAvg", 3 }},
		{"rounds", func(c *Checkpoint) (*Env, string, int) { return testEnv(42, 11, 5), "FedAvg", 3 }},
		{"population", func(c *Checkpoint) (*Env, string, int) { return testEnv(42, 10, 6), "FedAvg", 3 }},
		{"params", func(c *Checkpoint) (*Env, string, int) { return env, "FedAvg", 4 }},
		{"round-range", func(c *Checkpoint) (*Env, string, int) { c.Round = 11; return env, "FedAvg", 3 }},
		{"rng-root", func(c *Checkpoint) (*Env, string, int) { c.RngRoot[0] ^= 1; return env, "FedAvg", 3 }},
		{"scenario-fp", func(c *Checkpoint) (*Env, string, int) { c.ScenarioFP = 7; return env, "FedAvg", 3 }},
	}
	for _, tc := range cases {
		c := base()
		e, method, np := tc.tamper(c)
		if err := c.Matches(e, method, np); err == nil {
			t.Errorf("%s mismatch not detected", tc.name)
		}
	}
}

// TestCheckpointMatchesIdentity: the aggregation strategy and the
// presence of error-feedback state are part of a run's identity, so
// Matches refuses a checkpoint that differs from the environment in
// either — as an error, for callers that read the file from outside.
func TestCheckpointMatchesIdentity(t *testing.T) {
	const numParams = 3
	env := func(agg Aggregator, codec wire.Codec) *Env {
		e := testEnv(42, 10, 5)
		e.Aggregator, e.Codec = agg, codec
		return e
	}
	// checkpoint is what a run under (agg, codec) writes: identity, plus
	// the error-feedback sections when the codec is sparse.
	checkpoint := func(agg Aggregator, codec wire.Codec) *Checkpoint {
		e := env(agg, codec)
		c := NewCheckpoint(e, "FedAvg", 7, numParams, 0)
		if codec.Sparse() {
			NewErrorFeedback(codec, 0.1, len(e.Clients), numParams).State(c.Saver())
		}
		return c
	}
	if err := checkpoint(&Krum{Frac: 0.2}, wire.TopK).Matches(env(&Krum{Frac: 0.2}, wire.TopK), "FedAvg", numParams); err != nil {
		t.Fatalf("matching checkpoint refused: %v", err)
	}
	noAggSection := checkpoint(nil, wire.Float64)
	delete(noAggSection.ints, secRobustAgg)
	if err := noAggSection.Matches(env(nil, wire.Float64), "FedAvg", numParams); err != nil {
		t.Fatalf("a checkpoint without an aggregation section refused under the plain mean: %v", err)
	}
	for _, tc := range []struct {
		name string
		c    *Checkpoint
		env  *Env
	}{
		{"trimmed->krum", checkpoint(&TrimmedMean{Frac: 0.2}, wire.Float64), env(&Krum{Frac: 0.2}, wire.Float64)},
		{"trimmed-frac-change", checkpoint(&TrimmedMean{Frac: 0.2}, wire.Float64), env(&TrimmedMean{Frac: 0.3}, wire.Float64)},
		{"nil->median", checkpoint(nil, wire.Float64), env(&Median{}, wire.Float64)},
		{"median->nil", checkpoint(&Median{}, wire.Float64), env(nil, wire.Float64)},
		{"no section->median", noAggSection, env(&Median{}, wire.Float64)},
		{"sparse->dense", checkpoint(nil, wire.TopK), env(nil, wire.Float64)},
		{"dense->sparse", checkpoint(nil, wire.Float64), env(nil, wire.TopKQuant8)},
	} {
		if err := tc.c.Matches(tc.env, "FedAvg", numParams); err == nil {
			t.Errorf("%s: Matches accepted the checkpoint", tc.name)
		}
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
	env := testEnv(1, 2, 2)
	c := NewCheckpoint(env, "M", 1, 1, 0)
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

func TestNewCheckpointRngRootMatchesSeed(t *testing.T) {
	env := testEnv(99, 4, 3)
	c := NewCheckpoint(env, "M", 0, 1, 0)
	var root rng.Rng
	root.Reseed(99)
	if c.RngRoot != root.State() {
		t.Fatal("RngRoot does not pin the seed's root stream")
	}
}

// FuzzDecodeCheckpoint: arbitrary bytes must never panic the decoder,
// and anything it accepts must re-encode to a decodable equal form.
func FuzzDecodeCheckpoint(f *testing.F) {
	valid := fullCheckpoint(f).Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("FCKP"))
	f.Add([]byte{})
	env := testEnv(0, 1, 1)
	tiny := NewCheckpoint(env, "M", 0, 0, 0)
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
	})
}

func BenchmarkCheckpointEncode(b *testing.B) {
	env := testEnv(7, 100, 64)
	c := NewCheckpoint(env, "FedAvg", 50, 4096, 1)
	vec := make([]float64, 4096)
	for i := range vec {
		vec[i] = float64(i) * 0.001
	}
	c.SetVec("global", vec)
	c.SetVec("stale/cache", vec)
	c.SetInts("stale/cached_at", make([]int64, 64))
	c.Saver().Result(&Result{PerClientAcc: make([]float64, 64)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes = c.Encode()
	}
	b.SetBytes(int64(len(sinkBytes)))
}

func BenchmarkCheckpointDecode(b *testing.B) {
	env := testEnv(7, 100, 64)
	c := NewCheckpoint(env, "FedAvg", 50, 4096, 1)
	vec := make([]float64, 4096)
	for i := range vec {
		vec[i] = float64(i) * 0.001
	}
	c.SetVec("global", vec)
	c.SetVec("stale/cache", vec)
	c.SetInts("stale/cached_at", make([]int64, 64))
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

// TestAggIdentityPinned: the aggregation identity a checkpoint records
// is FNV-1a 64 of the strategy's name. The values are fixed: a checkpoint
// written before any change to the hash must still resume.
func TestAggIdentityPinned(t *testing.T) {
	for _, c := range []struct {
		agg  Aggregator
		want uint64
	}{
		{nil, 0x42f406a2e307ef94},
		{&Median{}, 0xc792e85e201cefb7},
		{&TrimmedMean{Frac: 0.2}, 0x9758a9e96ca8c5c8},
		{&Krum{Frac: 0.25}, 0x113d72c620edb51f},
	} {
		if got := uint64(aggIdentity(c.agg)); got != c.want {
			t.Errorf("aggIdentity(%s) = %#x, want %#x", AggregatorName(c.agg), got, c.want)
		}
	}
}
