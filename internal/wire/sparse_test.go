package wire

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"fedclust/internal/rng"
)

// sparseFixture builds a frame for the k largest-magnitude coordinates
// of vec, the way a compressing uplink would.
func sparseFixture(c Codec, vec []float64, k int) (frame []byte, idx []uint32, val []float64) {
	scores := make([]float64, len(vec))
	for i, v := range vec {
		scores[i] = math.Abs(v)
	}
	idx, _ = TopKSelect(nil, nil, scores, k)
	val = make([]float64, len(idx))
	for i, ix := range idx {
		val[i] = vec[ix]
	}
	return EncodeSparseInto(nil, c, len(vec), idx, val), idx, val
}

// MaxErrorKept returns the worst-case reconstruction error of codec c
// over the coordinates a top-k frame actually carries: the k largest
// magnitudes of vec are encoded and decoded, and the maximum kept-value
// error is reported (0 for TopK — float64 values ride exactly; the 8-bit
// range-quantizer bound for TopKQuant8). Dropped coordinates are outside
// the codec's contract entirely — their error equals the coordinate's
// magnitude and is carried by the error-feedback accumulator, which is
// why MaxError refuses sparse codecs instead of reporting a vacuous
// bound. Dense codecs defer to MaxError.
func MaxErrorKept(c Codec, vec []float64, k int) float64 {
	if !c.Sparse() {
		return MaxError(c, vec)
	}
	frame, _, val := sparseFixture(c, vec, k)
	sf, err := parseSparse(frame)
	if err != nil {
		panic(err) // encode→parse of a valid vector cannot fail
	}
	var m float64
	for i := range val {
		if d := math.Abs(val[i] - sf.value(i)); d > m {
			m = d
		}
	}
	return m
}

func TestSparseRoundTripTopK(t *testing.T) {
	vec := randVec(rng.New(41), 257)
	frame, idx, val := sparseFixture(TopK, vec, 16)
	if want := EncodedSizeSparse(TopK, len(vec), len(idx)); len(frame) != want {
		t.Fatalf("frame is %d bytes, EncodedSizeSparse says %d", len(frame), want)
	}
	dec, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(vec) {
		t.Fatalf("decoded %d coordinates, want %d", len(dec), len(vec))
	}
	kept := make(map[uint32]float64, len(idx))
	for i, ix := range idx {
		kept[ix] = val[i]
	}
	for i, v := range dec {
		if want, ok := kept[uint32(i)]; ok {
			if v != want {
				t.Errorf("kept coordinate %d decoded %v, want exact %v", i, v, want)
			}
		} else if v != 0 {
			t.Errorf("dropped coordinate %d decoded %v, want 0", i, v)
		}
	}
}

func TestSparseRoundTripTopKQuant8(t *testing.T) {
	vec := randVec(rng.New(42), 300)
	frame, idx, val := sparseFixture(TopKQuant8, vec, 24)
	if want := EncodedSizeSparse(TopKQuant8, len(vec), len(idx)); len(frame) != want {
		t.Fatalf("frame is %d bytes, EncodedSizeSparse says %d", len(frame), want)
	}
	dec, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	// Kept values ride the same 8-bit range quantizer as Quant8: error
	// bounded by half a step of the kept values' range.
	lo, hi := val[0], val[0]
	for _, v := range val {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	bound := (hi - lo) / 255
	for i, ix := range idx {
		if d := math.Abs(dec[ix] - val[i]); d > bound {
			t.Errorf("kept coordinate %d error %v exceeds quantizer bound %v", ix, d, bound)
		}
	}
}

func TestApplySparseOverlaysReference(t *testing.T) {
	vec := randVec(rng.New(43), 120)
	start := randVec(rng.New(44), 120)
	frame, idx, val := sparseFixture(TopK, vec, 10)
	got := append([]float64(nil), start...)
	if err := ApplySparseInto(got, frame); err != nil {
		t.Fatal(err)
	}
	kept := make(map[uint32]float64, len(idx))
	for i, ix := range idx {
		kept[ix] = val[i]
	}
	for i := range got {
		want, ok := kept[uint32(i)]
		if !ok {
			want = start[i] // unsent coordinates keep the reference
		}
		if got[i] != want {
			t.Errorf("coordinate %d: got %v, want %v (kept=%v)", i, got[i], want, ok)
		}
	}
	// Length mismatch is an error and must leave dst untouched.
	short := append([]float64(nil), start[:119]...)
	before := append([]float64(nil), short...)
	if err := ApplySparseInto(short, frame); err == nil {
		t.Fatal("ApplySparseInto accepted a reference of the wrong length")
	}
	for i := range short {
		if short[i] != before[i] {
			t.Fatalf("errored ApplySparseInto modified dst at %d", i)
		}
	}
}

// TestSparseFracOneCarriesEverything: frac 1.0 keeps all n coordinates,
// and TopK carries raw float64 bits — the frame reconstructs the vector
// bit-exactly, the degenerate case the engine's golden equivalence test
// leans on.
func TestSparseFracOneCarriesEverything(t *testing.T) {
	vec := randVec(rng.New(45), 97)
	k := TopKCount(len(vec), 1.0)
	if k != len(vec) {
		t.Fatalf("TopKCount(n, 1.0) = %d, want n = %d", k, len(vec))
	}
	frame, _, _ := sparseFixture(TopK, vec, k)
	dec, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vec {
		if dec[i] != vec[i] {
			t.Fatalf("coordinate %d not bit-exact under frac 1.0: %v vs %v", i, dec[i], vec[i])
		}
	}
}

func TestTopKCount(t *testing.T) {
	cases := []struct {
		n    int
		frac float64
		want int
	}{
		{0, 0.5, 0},    // empty vector: nothing to keep
		{100, 0.01, 1}, // round(1) = 1
		{1000, 0.01, 10},
		{100, 0.005, 1}, // rounds to 0, clamped up
		{10, 0.26, 3},   // round(2.6) = 3
		{10, 5, 10},     // clamped to n
		{10, 1, 10},
	}
	for _, c := range cases {
		if got := TopKCount(c.n, c.frac); got != c.want {
			t.Errorf("TopKCount(%d, %g) = %d, want %d", c.n, c.frac, got, c.want)
		}
	}
}

// TestTopKSelectDeterministicTies: surplus threshold-valued coordinates
// are taken lowest-index-first, so the selection is a pure function of
// the scores — never of quickselect's partition order.
func TestTopKSelectDeterministicTies(t *testing.T) {
	scores := []float64{3, 1, 3, 3, 2, 3, 0, 3} // five 3s, keep 3 of them
	idx, _ := TopKSelect(nil, nil, scores, 3)
	want := []uint32{0, 2, 3}
	if len(idx) != len(want) {
		t.Fatalf("kept %d indices, want %d", len(idx), len(want))
	}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("tie-break selected %v, want %v", idx, want)
		}
	}
}

// TestTopKSelectNaNRanksHighest: a NaN score must be selected ahead of
// everything finite — a poisoned coordinate has to reach the server's
// masking layer, not hide in the residual.
func TestTopKSelectNaNRanksHighest(t *testing.T) {
	scores := []float64{1, math.NaN(), 5, 2}
	idx, _ := TopKSelect(nil, nil, scores, 2)
	has := func(w uint32) bool {
		for _, ix := range idx {
			if ix == w {
				return true
			}
		}
		return false
	}
	if !has(1) || !has(2) {
		t.Fatalf("TopKSelect kept %v, want the NaN (1) and the 5 (2)", idx)
	}
}

func TestTopKSelectAscendingOrder(t *testing.T) {
	r := rng.New(46)
	scores := randVec(r, 500)
	for _, k := range []int{1, 5, 250, 499, 500} {
		idx, _ := TopKSelect(nil, nil, scores, k)
		if len(idx) != k {
			t.Fatalf("k=%d: kept %d", k, len(idx))
		}
		for i := 1; i < len(idx); i++ {
			if idx[i] <= idx[i-1] {
				t.Fatalf("k=%d: indices not strictly ascending at %d: %d then %d", k, i, idx[i-1], idx[i])
			}
		}
	}
}

// TestSparseDecodeRejectsHostileFrames: every malformed sparse frame is
// an error, never a panic or a bad read — remote peers have proven
// nothing.
func TestSparseDecodeRejectsHostileFrames(t *testing.T) {
	vec := randVec(rng.New(47), 64)
	frame, _, _ := sparseFixture(TopK, vec, 8)
	reseal := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), frame...))
	}
	cases := map[string][]byte{
		"truncated header":   frame[:7],
		"truncated payload":  frame[:len(frame)-20],
		"truncated checksum": frame[:len(frame)-1],
		"flipped bit": mutate(func(b []byte) []byte {
			b[headerLen+10] ^= 0x40
			return b
		}),
		"k exceeds n": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 65)
			return reseal(b)
		}),
		"index out of range": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[headerLen+4+4*7:], 64)
			return reseal(b)
		}),
		"duplicate index": mutate(func(b []byte) []byte {
			copy(b[headerLen+4+4:], b[headerLen+4:headerLen+4+4])
			return reseal(b)
		}),
		"descending indices": mutate(func(b []byte) []byte {
			first := append([]byte(nil), b[headerLen+4:headerLen+4+4]...)
			copy(b[headerLen+4:], b[headerLen+4+4:headerLen+4+8])
			copy(b[headerLen+4+4:], first)
			return reseal(b)
		}),
		"allocation bomb": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], 1<<30)
			return reseal(b)
		}),
	}
	for name, bad := range cases {
		if _, err := Decode(bad); err == nil {
			t.Errorf("%s: Decode accepted the frame", name)
		}
		ref := make([]float64, 64)
		if err := ApplySparseInto(ref, bad); err == nil {
			t.Errorf("%s: ApplySparseInto accepted the frame", name)
		}
	}
	// The original still decodes — the mutations, not the fixture, are
	// what the rejections prove.
	if _, err := Decode(frame); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
}

func TestMaxErrorRefusesSparse(t *testing.T) {
	for _, c := range []Codec{TopK, TopKQuant8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MaxError(%s) did not panic", c)
				}
			}()
			MaxError(c, []float64{1, 2, 3})
		}()
	}
}

func TestMaxErrorKept(t *testing.T) {
	vec := randVec(rng.New(48), 200)
	if e := MaxErrorKept(TopK, vec, 20); e != 0 {
		t.Errorf("TopK kept-value error %v, want 0 (raw float64 bits)", e)
	}
	lo, hi := vec[0], vec[0]
	for _, v := range vec {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	// All 200 coordinates kept: the quantizer bound is over the full range.
	if e, bound := MaxErrorKept(TopKQuant8, vec, 200), (hi-lo)/255; e > bound {
		t.Errorf("TopKQuant8 kept-value error %v exceeds range-quantizer bound %v", e, bound)
	}
	// Dense codecs defer to MaxError.
	if e := MaxErrorKept(Float64, vec, 20); e != 0 {
		t.Errorf("MaxErrorKept(Float64) = %v, want MaxError's 0", e)
	}
}

// TestSparseEncodeDecodeZeroAllocWarm: the warm uplink path — encode a
// sparse frame into a grown buffer, overlay it onto a resident vector —
// is allocation-free, same contract as the dense codecs.
func TestSparseApplyZeroAllocWarm(t *testing.T) {
	vec := randVec(rng.New(49), 2048)
	ref := randVec(rng.New(50), 2048)
	scores := make([]float64, len(vec))
	for i, v := range vec {
		scores[i] = math.Abs(v)
	}
	k := TopKCount(len(vec), 0.01)
	var idx []uint32
	var sel []float64
	val := make([]float64, 0, k)
	var buf []byte
	for _, c := range []Codec{TopK, TopKQuant8} {
		if allocs := testing.AllocsPerRun(20, func() {
			idx, sel = TopKSelect(idx, sel, scores, k)
			val = val[:0]
			for _, ix := range idx {
				val = append(val, vec[ix])
			}
			buf = EncodeSparseInto(buf[:0], c, len(vec), idx, val)
			if err := ApplySparseInto(ref, buf); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: warm select+encode+apply allocated %.1f times", c, allocs)
		}
	}
}

func BenchmarkEncodeSparseTopK(b *testing.B) {
	benchmarkEncodeSparse(b, TopK)
}

func BenchmarkEncodeSparseTopKQuant8(b *testing.B) {
	benchmarkEncodeSparse(b, TopKQuant8)
}

func benchmarkEncodeSparse(b *testing.B, c Codec) {
	vec := randVec(rng.New(51), 1<<16)
	scores := make([]float64, len(vec))
	for i, v := range vec {
		scores[i] = math.Abs(v)
	}
	k := TopKCount(len(vec), 0.01)
	var idx []uint32
	var sel []float64
	val := make([]float64, 0, k)
	var buf []byte
	// Warm the reused scratch: steady-state encoding is allocation-free.
	idx, sel = TopKSelect(idx, sel, scores, k)
	buf = EncodeSparseInto(buf[:0], c, len(vec), idx, val[:k])
	b.ReportAllocs()
	b.SetBytes(int64(EncodedSizeSparse(c, len(vec), k)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, sel = TopKSelect(idx, sel, scores, k)
		val = val[:0]
		for _, ix := range idx {
			val = append(val, vec[ix])
		}
		buf = EncodeSparseInto(buf[:0], c, len(vec), idx, val)
	}
}

func BenchmarkApplySparse(b *testing.B) {
	vec := randVec(rng.New(52), 1<<16)
	ref := randVec(rng.New(53), 1<<16)
	frame, _, _ := sparseFixture(TopK, vec, TopKCount(len(vec), 0.01))
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ApplySparseInto(ref, frame); err != nil {
			b.Fatal(err)
		}
	}
}
