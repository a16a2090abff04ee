// Sparse parameter frames: top-k sparsification. A sparse frame carries
// only the k largest-change coordinates of an n-vector as (index, value)
// pairs — the uplink compression that makes federated communication
// budgets real. Layout:
//
//	magic (2B) | codec (1B) | reserved (1B) | count n (4B LE) |
//	kept k (4B LE) | [TopKQuant8: min f64 | scale f64] |
//	indices (4B LE × k, strictly ascending, < n) |
//	values (8B f64 × k, or 1B × k under TopKQuant8) |
//	crc32 of everything before it (4B)
//
// A sparse frame is an *overlay*, not a vector: the receiver holds the
// coordinates that were not sent (the start vector it broadcast) and
// ApplySparseInto patches the kept values over it. DecodeInto, for
// uniformity with the dense codecs, materializes the overlay against a
// zero vector. Dropped-coordinate error is the sender's problem — the
// error-feedback accumulator in internal/fl carries it into the next
// round — which is why a sparse codec's error is bounded over the kept
// coordinates only.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// maxSparseDecode bounds the dense vector DecodeInto will materialize
// from a sparse frame's count field. Unlike dense frames, a sparse
// frame's n is decoupled from its byte length (k is what's on the wire),
// so a hostile 50-byte frame could otherwise claim n in the billions and
// drive an allocation bomb. The cap matches the largest model a dense
// transport frame can carry (MaxFrame/8 float64s). ApplySparseInto never
// allocates and is not subject to it.
const maxSparseDecode = 1 << 24

// Sparse reports whether the codec produces sparse (index, value)
// frames rather than dense payloads.
func (c Codec) Sparse() bool { return c == TopK || c == TopKQuant8 }

// Downlink returns the codec used for server→client broadcast under an
// uplink codec c. Sparsification is an uplink technique — the server
// model moves everywhere each round, so a sparse downlink would discard
// it — so the sparse codecs broadcast dense Float64; dense codecs are
// symmetric.
func (c Codec) Downlink() Codec {
	if c.Sparse() {
		return Float64
	}
	return c
}

// ParseCodec maps a codec name (as printed by Codec.String) back to the
// codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "float64":
		return Float64, nil
	case "float32":
		return Float32, nil
	case "quant8":
		return Quant8, nil
	case "topk":
		return TopK, nil
	case "topk-quant8":
		return TopKQuant8, nil
	default:
		return 0, fmt.Errorf("wire: unknown codec %q (float64, float32, quant8, topk, topk-quant8)", s)
	}
}

// TopKCount returns the kept-coordinate count for an n-vector under
// fraction frac: round(frac·n) clamped to [1, n]. Zero only for an
// empty vector.
func TopKCount(n int, frac float64) int {
	if n <= 0 {
		return 0
	}
	k := int(math.Round(frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// EncodedSizeSparse returns the total frame size for an n-vector with k
// kept coordinates under codec c. Dense codecs ignore k and defer to
// EncodedSize, so transports can price any uplink through one formula.
func EncodedSizeSparse(c Codec, n, k int) int {
	switch c {
	case TopK:
		return headerLen + 4 + 12*k + 4
	case TopKQuant8:
		return headerLen + 4 + 16 + 5*k + 4
	default:
		return EncodedSize(c, n)
	}
}

// EncodeSparseInto appends a sparse frame carrying the (idx, val) pairs
// of an n-vector to dst and returns the extended slice. idx must be
// strictly ascending with every entry < n (TopKSelect produces exactly
// this); violations panic — producers are in-process and trusted, unlike
// decoders. Under TopKQuant8 the kept values ride the same 8-bit range
// quantizer as Quant8.
func EncodeSparseInto(dst []byte, c Codec, n int, idx []uint32, val []float64) []byte {
	if !c.Sparse() {
		panic(fmt.Sprintf("wire: EncodeSparseInto with dense codec %s", c))
	}
	k := len(idx)
	if k != len(val) {
		panic(fmt.Sprintf("wire: %d indices but %d values", k, len(val)))
	}
	if k > n {
		panic(fmt.Sprintf("wire: %d kept coordinates in an %d-vector", k, n))
	}
	start := len(dst)
	out := append(dst, byte(magic>>8), byte(magic&0xff), byte(c), 0)
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = binary.LittleEndian.AppendUint32(out, uint32(k))
	var lo, scale float64
	if c == TopKQuant8 {
		var hi float64
		lo, hi = rangeOf(val)
		scale = (hi - lo) / 255
		if scale == 0 {
			scale = 1
		}
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(lo))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(scale))
	}
	prev := -1
	for _, ix := range idx {
		i := int(ix)
		if i <= prev || i >= n {
			panic(fmt.Sprintf("wire: sparse index %d out of order or outside [0,%d)", i, n))
		}
		prev = i
		out = binary.LittleEndian.AppendUint32(out, ix)
	}
	switch c {
	case TopK:
		for _, v := range val {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	case TopKQuant8:
		for _, v := range val {
			q := math.Round((v - lo) / scale)
			if !(q > 0) {
				q = 0
			}
			if q > 255 {
				q = 255
			}
			out = append(out, byte(q))
		}
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
	return out
}

// sparseFrame is a validated view into a sparse frame's sections.
type sparseFrame struct {
	c         Codec
	n, k      int
	lo, scale float64
	idx       []byte // 4k bytes
	val       []byte // 8k or k bytes
}

// parseSparse validates a sparse frame end to end — length, magic,
// checksum, codec, counts, and the strictly-ascending in-range index
// contract — without allocating. Every failure is an error, never a
// panic: sparse frames arrive off the wire from peers that have proven
// nothing.
func parseSparse(frame []byte) (sparseFrame, error) {
	var sf sparseFrame
	if len(frame) < headerLen+4+4 {
		return sf, fmt.Errorf("wire: sparse frame too short (%d bytes)", len(frame))
	}
	if frame[0] != byte(magic>>8) || frame[1] != byte(magic&0xff) {
		return sf, fmt.Errorf("wire: bad magic %#x%02x", frame[0], frame[1])
	}
	body, sum := frame[:len(frame)-4], binary.LittleEndian.Uint32(frame[len(frame)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return sf, fmt.Errorf("wire: checksum mismatch")
	}
	sf.c = Codec(frame[2])
	if !sf.c.Sparse() {
		return sf, fmt.Errorf("wire: codec %s is not sparse", sf.c)
	}
	sf.n = int(binary.LittleEndian.Uint32(frame[4:8]))
	sf.k = int(binary.LittleEndian.Uint32(frame[8:12]))
	if sf.k > sf.n {
		return sf, fmt.Errorf("wire: %d kept coordinates in an %d-vector", sf.k, sf.n)
	}
	if want := EncodedSizeSparse(sf.c, sf.n, sf.k); want != len(frame) {
		return sf, fmt.Errorf("wire: frame length %d, want %d for %s %d/%d", len(frame), want, sf.c, sf.k, sf.n)
	}
	off := headerLen + 4
	if sf.c == TopKQuant8 {
		sf.lo = math.Float64frombits(binary.LittleEndian.Uint64(frame[off:]))
		sf.scale = math.Float64frombits(binary.LittleEndian.Uint64(frame[off+8:]))
		off += 16
	}
	sf.idx = frame[off : off+4*sf.k]
	sf.val = frame[off+4*sf.k : len(frame)-4]
	prev := -1
	for i := 0; i < sf.k; i++ {
		ix := int(binary.LittleEndian.Uint32(sf.idx[4*i:]))
		if ix <= prev {
			return sf, fmt.Errorf("wire: sparse index %d at position %d not strictly ascending", ix, i)
		}
		if ix >= sf.n {
			return sf, fmt.Errorf("wire: sparse index %d outside [0,%d)", ix, sf.n)
		}
		prev = ix
	}
	return sf, nil
}

// value returns the i-th kept value of a parsed frame.
func (sf *sparseFrame) value(i int) float64 {
	if sf.c == TopK {
		return math.Float64frombits(binary.LittleEndian.Uint64(sf.val[8*i:]))
	}
	return sf.lo + float64(sf.scale*float64(sf.val[i]))
}

// ApplySparseInto overlays a sparse frame's kept values onto dst, which
// must hold the receiver's reference vector (the broadcast start) at
// full length — the frame's count must equal len(dst). Coordinates the
// frame does not carry keep their dst values. It validates the frame
// completely and never allocates; on error dst is unmodified.
func ApplySparseInto(dst []float64, frame []byte) error {
	sf, err := parseSparse(frame)
	if err != nil {
		return err
	}
	if sf.n != len(dst) {
		return fmt.Errorf("wire: sparse frame over %d coordinates, reference holds %d", sf.n, len(dst))
	}
	for i := 0; i < sf.k; i++ {
		dst[binary.LittleEndian.Uint32(sf.idx[4*i:])] = sf.value(i)
	}
	return nil
}

// decodeSparseInto materializes a sparse frame against a zero reference
// (DecodeInto's uniform contract). The count cap keeps a hostile frame
// from claiming a multi-gigabyte vector its bytes never carry.
func decodeSparseInto(dst []float64, frame []byte) ([]float64, error) {
	sf, err := parseSparse(frame)
	if err != nil {
		return nil, err
	}
	if sf.n > maxSparseDecode {
		return nil, fmt.Errorf("wire: sparse frame claims %d coordinates, decode cap %d", sf.n, maxSparseDecode)
	}
	if cap(dst) < sf.n {
		dst = make([]float64, sf.n)
	}
	out := dst[:sf.n]
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < sf.k; i++ {
		out[binary.LittleEndian.Uint32(sf.idx[4*i:])] = sf.value(i)
	}
	return out, nil
}

// TopKSelect writes the indices of the k largest scores into idx, in
// ascending index order, and returns the (possibly grown) slices for
// reuse. Selection is deterministic under ties: the threshold is the
// k-th largest value and surplus threshold-valued coordinates are taken
// lowest-index-first — independent of the internal partition order. NaN
// scores rank as +Inf (a non-finite coordinate is exactly what the
// server must see, so the masking layer can catch it). scratch backs the
// destructive selection; scores is never modified. Zero allocations once
// both slices have capacity.
func TopKSelect(idx []uint32, scratch, scores []float64, k int) ([]uint32, []float64) {
	n := len(scores)
	if k > n {
		k = n
	}
	idx = idx[:0]
	if k <= 0 {
		return idx, scratch
	}
	if cap(idx) < k {
		idx = make([]uint32, 0, k)
	}
	if k == n {
		for i := 0; i < n; i++ {
			idx = append(idx, uint32(i))
		}
		return idx, scratch
	}
	scratch = scratch[:0]
	for _, s := range scores {
		if math.IsNaN(s) {
			s = math.Inf(1)
		}
		scratch = append(scratch, s)
	}
	thr := selectKthLargest(scratch, k)
	greater := 0
	for _, s := range scores {
		if math.IsNaN(s) {
			s = math.Inf(1)
		}
		if s > thr {
			greater++
		}
	}
	atThr := k - greater
	for i, s := range scores {
		if math.IsNaN(s) {
			s = math.Inf(1)
		}
		if s > thr {
			idx = append(idx, uint32(i))
		} else if s == thr && atThr > 0 {
			idx = append(idx, uint32(i))
			atThr--
		}
	}
	return idx, scratch
}

// selectKthLargest returns the k-th largest element of a (1-based k,
// 1 ≤ k ≤ len(a)), partially reordering a in place. Median-of-three
// Hoare quickselect; the returned *value* is order-independent, which is
// what makes TopKSelect deterministic regardless of partition behavior.
func selectKthLargest(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	target := k - 1 // selecting in descending order
	for lo < hi {
		// Median-of-three pivot to a[lo].
		mid := lo + (hi-lo)/2
		if a[mid] > a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] > a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] > a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		a[lo], a[mid] = a[mid], a[lo]
		pivot := a[lo]
		i, j := lo, hi+1
		for {
			for {
				i++
				if i > hi || a[i] <= pivot {
					break
				}
			}
			for {
				j--
				if a[j] >= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		a[lo], a[j] = a[j], a[lo]
		switch {
		case j == target:
			return a[j]
		case j < target:
			lo = j + 1
		default:
			hi = j - 1
		}
	}
	return a[lo]
}
