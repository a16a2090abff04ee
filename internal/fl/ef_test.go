package fl

import (
	"math"
	"slices"
	"testing"

	"fedclust/internal/rng"
	"fedclust/internal/wire"
)

func efRandVec(r *rng.Rng, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// TestErrorFeedbackInvariant pins the accumulator's defining identity:
// after Visit, reconstruction + residual == trained + previous residual
// (the target). Nothing the sparse frame drops is ever lost.
func TestErrorFeedbackInvariant(t *testing.T) {
	const n = 200
	r := rng.New(61)
	for _, c := range []wire.Codec{wire.TopK, wire.TopKQuant8} {
		ef := NewErrorFeedback(c, 0.05, 1, n)
		var s EFScratch
		start := efRandVec(r, n)
		prevRes := make([]float64, n)
		for round := 0; round < 5; round++ {
			out := efRandVec(r, n)
			target := make([]float64, n)
			for i := range target {
				target[i] = out[i] + prevRes[i]
			}
			ef.Visit(nil, 0, start, out, &s)
			for i := range target {
				if got := out[i] + ef.res[0][i]; math.Abs(got-target[i]) > 1e-12 {
					t.Fatalf("%s round %d coord %d: reconstruction+residual = %v, target %v",
						c, round, i, got, target[i])
				}
			}
			copy(prevRes, ef.res[0])
			copy(start, out) // next broadcast is the reconstruction
		}
	}
}

// TestErrorFeedbackKeepsTopCoordinates: the kept coordinates carry the
// target exactly under TopK, and the k chosen are the largest
// |target-start| movers.
func TestErrorFeedbackKeepsTopCoordinates(t *testing.T) {
	const n = 100
	ef := NewErrorFeedback(wire.TopK, 0.05, 1, n) // k = 5
	var s EFScratch
	start := make([]float64, n)
	out := make([]float64, n)
	big := []int{7, 23, 42, 77, 91}
	for i, ix := range big {
		out[ix] = float64(10 + i)
	}
	for i := 0; i < n; i++ {
		if out[i] == 0 {
			out[i] = 0.001
		}
	}
	ef.Visit(nil, 0, start, out, &s)
	for _, ix := range big {
		if ef.res[0][ix] != 0 {
			t.Errorf("kept coordinate %d left residual %v, want 0", ix, ef.res[0][ix])
		}
		if out[ix] == start[ix] {
			t.Errorf("kept coordinate %d was not applied", ix)
		}
	}
	dropped := 0
	for i := 0; i < n; i++ {
		if out[i] == 0.001 {
			t.Fatalf("dropped coordinate %d leaked its trained value into the reconstruction", i)
		}
		if ef.res[0][i] == 0.001 {
			dropped++
		}
	}
	if dropped != n-len(big) {
		t.Errorf("%d dropped coordinates carried into the residual, want %d", dropped, n-len(big))
	}
}

// TestErrorFeedbackVisitFrameShipsReconstruction: the frame Visit
// returns, applied to the receiver's copy of start, yields exactly the
// reconstruction the sender kept — sender and receiver bit-identical by
// construction.
func TestErrorFeedbackVisitFrameShipsReconstruction(t *testing.T) {
	const n = 150
	r := rng.New(62)
	for _, c := range []wire.Codec{wire.TopK, wire.TopKQuant8} {
		ef := NewErrorFeedback(c, 0.1, 1, n)
		var s EFScratch
		start := efRandVec(r, n)
		out := efRandVec(r, n)
		frame := ef.Visit(nil, 0, start, out, &s)
		if want := TrainResponseBytesSparse(c, n, wire.TopKCount(n, 0.1)) - msgFrameOverhead - updateMetaLen; len(frame) != int(want) {
			t.Errorf("%s: frame is %d bytes, sizes.go prices %d", c, len(frame), want)
		}
		receiver := append([]float64(nil), start...)
		if err := wire.ApplySparseInto(receiver, frame); err != nil {
			t.Fatal(err)
		}
		for i := range receiver {
			if receiver[i] != out[i] {
				t.Fatalf("%s coord %d: receiver %v, sender reconstruction %v", c, i, receiver[i], out[i])
			}
		}
	}
}

// TestErrorFeedbackNonFiniteResidualDropped: whatever non-finite
// remainder a NaN/Inf trained value would leave in the residual is
// zeroed instead of compounding forever.
func TestErrorFeedbackNonFiniteResidualDropped(t *testing.T) {
	const n = 50
	ef := NewErrorFeedback(wire.TopK, 0.02, 1, n) // k = 1
	var s EFScratch
	start := make([]float64, n)
	out := make([]float64, n)
	out[3] = math.NaN()
	out[9] = math.Inf(1)
	ef.Visit(nil, 0, start, out, &s)
	for i, r := range ef.res[0] {
		if !isFinite(r) {
			t.Fatalf("residual %d is non-finite: %v", i, r)
		}
	}
}

// TestErrorFeedbackNonFiniteTrainedValue pins what each sparse codec
// does with a NaN or ±Inf trained coordinate. Its score ranks as +Inf,
// so it is always kept. TopK ships the raw bits, so the receiver holds
// the non-finite value and the server's masking layer sees it.
// TopKQuant8 quantizes over the finite range of the kept values: NaN and
// −Inf decode as its low end, +Inf as its high end, so the receiver
// holds a finite value and the server never sees the fault. Either way
// the residual there is zero.
func TestErrorFeedbackNonFiniteTrainedValue(t *testing.T) {
	const n = 400
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []wire.Codec{wire.TopK, wire.TopKQuant8} {
		ef := NewErrorFeedback(c, 0.05, 1, n) // k = 20
		var s EFScratch
		start := efRandVec(rng.New(67), n)
		out := append([]float64(nil), start...)
		for i := 0; i < n; i += 20 {
			out[i] += 1 + float64(i)/n // twenty finite movers, all kept
		}
		out[3], out[5], out[7] = nan, inf, -inf // ranked above every mover
		ef.Visit(nil, 0, start, out, &s)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range out {
			if v != start[i] && isFinite(v) {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
		}
		got := [3]float64{out[3], out[5], out[7]}
		want := [3]float64{nan, inf, -inf}
		if c == wire.TopKQuant8 {
			want = [3]float64{lo, hi, lo}
		}
		for j, ix := range []int{3, 5, 7} {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Errorf("%s: coordinate %d reconstructs to %v, want %v", c, ix, got[j], want[j])
			}
			if r := ef.res[0][ix]; r != 0 {
				t.Errorf("%s: coordinate %d keeps residual %v, want 0", c, ix, r)
			}
		}
	}
}

func TestErrorFeedbackReset(t *testing.T) {
	const n = 30
	ef := NewErrorFeedback(wire.TopK, 0.1, 3, n)
	var s EFScratch
	r := rng.New(63)
	for client := 0; client < 3; client++ {
		ef.Visit(nil, client, efRandVec(r, n), efRandVec(r, n), &s)
	}
	ef.Reset()
	for client := 0; client < 3; client++ {
		for i, v := range ef.res[client] {
			if v != 0 {
				t.Fatalf("client %d residual %d is %v after Reset", client, i, v)
			}
		}
	}
}

// TestErrorFeedbackCheckpointRoundTrip: a saving and a loading State walk
// restore the residual matrix bit-exactly and refuse identity mismatches.
func TestErrorFeedbackCheckpointRoundTrip(t *testing.T) {
	const nClients, n = 4, 40
	ef := NewErrorFeedback(wire.TopKQuant8, 0.1, nClients, n)
	var s EFScratch
	r := rng.New(64)
	for client := 0; client < nClients; client++ {
		ef.Visit(nil, client, efRandVec(r, n), efRandVec(r, n), &s)
	}
	var ck Checkpoint
	ef.State(ck.Saver())
	if !ck.HasInts(SecEFMeta) {
		t.Fatal("no error-feedback meta section after a saving walk")
	}

	restored := NewErrorFeedback(wire.TopKQuant8, 0.1, nClients, n)
	l := ck.Loader()
	restored.State(l)
	if l.Err != nil {
		t.Fatal(l.Err)
	}
	for client := 0; client < nClients; client++ {
		for i := range ef.res[client] {
			if restored.res[client][i] != ef.res[client][i] {
				t.Fatalf("client %d residual %d: restored %v, saved %v",
					client, i, restored.res[client][i], ef.res[client][i])
			}
		}
	}

	for name, other := range map[string]*ErrorFeedback{
		"codec mismatch": NewErrorFeedback(wire.TopK, 0.1, nClients, n),
		"frac mismatch":  NewErrorFeedback(wire.TopKQuant8, 0.2, nClients, n),
		"shape mismatch": NewErrorFeedback(wire.TopKQuant8, 0.1, nClients+1, n),
	} {
		l := ck.Loader()
		other.State(l)
		if l.Err == nil {
			t.Errorf("%s: loading walk accepted foreign EF state", name)
		}
	}

	if (&Checkpoint{}).HasInts(SecEFMeta) {
		t.Error("an empty checkpoint reports an error-feedback meta section")
	}
}

// TestErrorFeedbackVisitZeroAllocWarm: the per-visit uplink path must
// not touch the heap once scratch is grown — same contract as the dense
// codecs, so sparse compression adds no per-round garbage.
func TestErrorFeedbackVisitZeroAllocWarm(t *testing.T) {
	const n = 4096
	r := rng.New(65)
	start := efRandVec(r, n)
	trained := efRandVec(r, n)
	out := make([]float64, n)
	for _, c := range []wire.Codec{wire.TopK, wire.TopKQuant8} {
		ef := NewErrorFeedback(c, 0.01, 1, n)
		var s EFScratch
		frame := ef.Visit(nil, 0, start, out, &s) // warm the scratch
		if allocs := testing.AllocsPerRun(20, func() {
			copy(out, trained)
			frame = ef.Visit(frame[:0], 0, start, out, &s)
		}); allocs != 0 {
			t.Errorf("%s: warm Visit allocated %.1f times", c, allocs)
		}
	}
}

func BenchmarkErrorFeedbackVisit(b *testing.B) {
	const n = 1 << 16
	r := rng.New(66)
	start := efRandVec(r, n)
	trained := efRandVec(r, n)
	out := make([]float64, n)
	ef := NewErrorFeedback(wire.TopK, 0.01, 1, n)
	var s EFScratch
	frame := ef.Visit(nil, 0, start, out, &s)
	b.ReportAllocs()
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(out, trained)
		frame = ef.Visit(frame[:0], 0, start, out, &s)
	}
}

// efVisitOracle is ErrorFeedback.Visit before the fused first pass: the
// residual of every coordinate is target − reconstruction, taken after
// the frame is applied.
func efVisitOracle(ef *ErrorFeedback, dst []byte, client int, start, out []float64, s *EFScratch) []byte {
	n := len(out)
	res := ef.res[client]
	if cap(s.target) < n {
		s.target = make([]float64, n)
		s.scores = make([]float64, n)
	}
	target, scores := s.target[:n], s.scores[:n]
	for i := 0; i < n; i++ {
		t := out[i] + res[i]
		target[i] = t
		scores[i] = math.Abs(t - start[i])
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
		panic(err)
	}
	for i := 0; i < n; i++ {
		r := target[i] - out[i]
		if !isFinite(r) {
			r = 0
		}
		res[i] = r
	}
	return dst
}

// TestErrorFeedbackVisitMatchesOracle: over several rounds and clients,
// Visit appends the oracle's frame bytes, leaves its reconstruction and
// its residual rows bit for bit, under both sparse codecs, at a size
// with and a size without TopKSelect's sampled bound, with non-finite
// trained values in some rounds.
func TestErrorFeedbackVisitMatchesOracle(t *testing.T) {
	const clients, rounds = 3, 6
	bits := func(v []float64) []uint64 {
		b := make([]uint64, len(v))
		for i, x := range v {
			b[i] = math.Float64bits(x)
		}
		return b
	}
	for _, c := range []wire.Codec{wire.TopK, wire.TopKQuant8} {
		for _, n := range []int{300, 9000} {
			got := NewErrorFeedback(c, 0.05, clients, n)
			want := NewErrorFeedback(c, 0.05, clients, n)
			var gs, ws EFScratch
			r := rng.New(uint64(n))
			start := efRandVec(r, n)
			for round := 0; round < rounds; round++ {
				for client := 0; client < clients; client++ {
					out := efRandVec(r, n)
					for i := range out {
						out[i] = start[i] + 0.1*out[i]
					}
					if round%2 == 1 {
						out[r.Intn(n)] = math.NaN()
						out[r.Intn(n)] = math.Inf(1)
						out[r.Intn(n)] = math.Inf(-1)
					}
					wantOut := append([]float64(nil), out...)
					gotFrame := got.Visit([]byte{0xAB}, client, start, out, &gs)
					wantFrame := efVisitOracle(want, []byte{0xAB}, client, start, wantOut, &ws)
					if string(gotFrame) != string(wantFrame) {
						t.Fatalf("%s n=%d round %d client %d: frames differ", c, n, round, client)
					}
					if !slices.Equal(bits(out), bits(wantOut)) {
						t.Fatalf("%s n=%d round %d client %d: reconstructions differ", c, n, round, client)
					}
					if !slices.Equal(bits(got.res[client]), bits(want.res[client])) {
						t.Fatalf("%s n=%d round %d client %d: residual rows differ", c, n, round, client)
					}
					if client == 0 {
						copy(start, out) // the next broadcast moves
					}
				}
			}
		}
	}
}

func BenchmarkErrorFeedbackVisitUplink(b *testing.B) {
	const n = 41_672 // the float32 MLP of the TCP benchmark workload
	r := rng.New(68)
	start := efRandVec(r, n)
	trained := efRandVec(r, n)
	out := make([]float64, n)
	for _, c := range []wire.Codec{wire.TopK, wire.TopKQuant8} {
		b.Run(c.String(), func(b *testing.B) {
			ef := NewErrorFeedback(c, 0.05, 1, n)
			var s EFScratch
			frame := ef.Visit(nil, 0, start, out, &s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(out, trained)
				frame = ef.Visit(frame[:0], 0, start, out, &s)
			}
		})
	}
}
