// Package wire defines the on-the-wire encoding of model parameter
// vectors exchanged between clients and server. The simulator's
// communication accounting (fl.CommStats) models volumes; this package
// makes those bytes concrete — including the lossy narrow encodings
// (float32, int8 range quantization) that federated deployments use to cut
// uplink cost — so compression ablations measure real encoded sizes.
//
// Every message is framed as:
//
//	magic (2B) | codec (1B) | reserved (1B) | count (4B LE) |
//	codec-specific header | payload | crc32 of everything before it (4B)
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Codec identifies a parameter encoding.
type Codec uint8

const (
	// Float64 is the lossless 8-byte encoding.
	Float64 Codec = iota
	// Float32 halves the payload with ~1e-7 relative rounding.
	Float32
	// Quant8 is linear 8-bit range quantization: payload carries one
	// byte per value plus a (min, scale) float64 header pair.
	Quant8
	// TopK is the sparse codec: only the k most-changed coordinates
	// travel, as (index, float64 value) pairs — see sparse.go.
	TopK
	// TopKQuant8 composes the two lossy axes: a TopK frame whose kept
	// values ride the Quant8 range quantizer (1 byte each).
	TopKQuant8
)

// String returns the codec name.
func (c Codec) String() string {
	switch c {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	case Quant8:
		return "quant8"
	case TopK:
		return "topk"
	case TopKQuant8:
		return "topk-quant8"
	default:
		return fmt.Sprintf("Codec(%d)", uint8(c))
	}
}

const magic = 0xFC5A // "FedClust" frame marker

// headerLen is the fixed frame prefix length.
const headerLen = 2 + 1 + 1 + 4

// EncodedSize returns the total frame size for n values under a dense
// codec c. Sparse codecs panic — their size depends on the kept count,
// which the caller must supply via EncodedSizeSparse.
func EncodedSize(c Codec, n int) int {
	switch c {
	case Float64:
		return headerLen + 8*n + 4
	case Float32:
		return headerLen + 4*n + 4
	case Quant8:
		return headerLen + 16 + n + 4
	case TopK, TopKQuant8:
		panic(fmt.Sprintf("wire: EncodedSize(%s) needs a kept count — use EncodedSizeSparse", c))
	default:
		panic(fmt.Sprintf("wire: unknown codec %d", uint8(c)))
	}
}

// EncodeInto appends the frame for vec under codec c to dst and returns
// the extended slice: pass a reused buffer (dst[:0]) and the warm path
// allocates nothing, pass nil for a one-off frame. The frame
// may land mid-buffer — its checksum covers only the bytes appended by
// this call — so transports can append a frame directly after their own
// message headers.
func EncodeInto(dst []byte, c Codec, vec []float64) []byte {
	start := len(dst)
	out := append(dst, byte(magic>>8), byte(magic&0xff), byte(c), 0)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(vec)))
	switch c {
	case Float64:
		for _, v := range vec {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	case Float32:
		for _, v := range vec {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(v)))
		}
	case Quant8:
		lo, hi := rangeOf(vec)
		scale := (hi - lo) / 255
		if scale == 0 {
			scale = 1 // constant vector: all bytes 0, min carries the value
		}
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(lo))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(scale))
		for _, v := range vec {
			// The range is finite (rangeOf skips non-finite values), so
			// degenerate inputs clamp deterministically: -Inf and NaN to
			// the bottom byte — !(q > 0) is the NaN-safe form of q < 0 —
			// and +Inf to the top.
			q := math.Round((v - lo) / scale)
			if !(q > 0) {
				q = 0
			}
			if q > 255 {
				q = 255
			}
			out = append(out, byte(q))
		}
	default:
		panic(fmt.Sprintf("wire: unknown codec %d", uint8(c)))
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
	return out
}

// EncodeFloat32Into appends a Float32 frame built directly from float32
// values, bit-identical to EncodeInto(dst, Float32, widened): widening a
// float32 to float64 and rounding back is the identity, so a producer
// that already holds float32 (the float32 training path's shadow
// parameters) can skip both conversions — a true zero-convert fast path,
// not a different encoding.
func EncodeFloat32Into(dst []byte, vec []float32) []byte {
	start := len(dst)
	out := append(dst, byte(magic>>8), byte(magic&0xff), byte(Float32), 0)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(vec)))
	for _, v := range vec {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[start:]))
	return out
}

// FrameCodec returns the codec a frame was encoded under without
// decoding it — the accessor transports use to mirror a request's codec
// in the reply, so the header layout stays this package's private
// knowledge.
func FrameCodec(frame []byte) (Codec, error) {
	if len(frame) < headerLen {
		return 0, fmt.Errorf("wire: frame too short (%d bytes)", len(frame))
	}
	if frame[0] != byte(magic>>8) || frame[1] != byte(magic&0xff) {
		return 0, fmt.Errorf("wire: bad magic %#x%02x", frame[0], frame[1])
	}
	switch c := Codec(frame[2]); c {
	case Float64, Float32, Quant8, TopK, TopKQuant8:
		return c, nil
	default:
		return 0, fmt.Errorf("wire: unknown codec %d", uint8(c))
	}
}

// Decode parses a frame produced by Encode, returning the decoded values.
// It returns an error (never panics) on truncation, bad magic, unknown
// codec, or checksum mismatch — a server must survive malformed client
// uploads.
func Decode(frame []byte) ([]float64, error) {
	return DecodeInto(nil, frame)
}

// DecodeInto is Decode writing into dst (grown when too small) instead of
// a fresh slice, so a warm receive path allocates nothing. The returned
// slice aliases dst's backing array when it fits.
func DecodeInto(dst []float64, frame []byte) ([]float64, error) {
	if len(frame) < headerLen+4 {
		return nil, fmt.Errorf("wire: frame too short (%d bytes)", len(frame))
	}
	if frame[0] != byte(magic>>8) || frame[1] != byte(magic&0xff) {
		return nil, fmt.Errorf("wire: bad magic %#x%02x", frame[0], frame[1])
	}
	body, sum := frame[:len(frame)-4], binary.LittleEndian.Uint32(frame[len(frame)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("wire: checksum mismatch")
	}
	c := Codec(frame[2])
	switch c {
	case Float64, Float32, Quant8:
	case TopK, TopKQuant8:
		// A sparse frame is an overlay; materialized here against a
		// zero reference for DecodeInto's uniform dense contract.
		return decodeSparseInto(dst, frame)
	default:
		return nil, fmt.Errorf("wire: unknown codec %d", uint8(c))
	}
	n := int(binary.LittleEndian.Uint32(frame[4:8]))
	if n < 0 {
		return nil, fmt.Errorf("wire: negative count")
	}
	if want := EncodedSize(c, n); want != len(frame) {
		return nil, fmt.Errorf("wire: frame length %d, want %d for %s×%d", len(frame), want, c, n)
	}
	payload := frame[headerLen : len(frame)-4]
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	out := dst[:n]
	switch c {
	case Float64:
		for i := 0; i < n; i++ {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	case Float32:
		for i := 0; i < n; i++ {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:])))
		}
	case Quant8:
		lo := math.Float64frombits(binary.LittleEndian.Uint64(payload[0:]))
		scale := math.Float64frombits(binary.LittleEndian.Uint64(payload[8:]))
		for i := 0; i < n; i++ {
			out[i] = lo + scale*float64(payload[16+i])
		}
	}
	return out, nil
}

// MaxError returns the worst-case absolute reconstruction error of codec c
// on vec (0 for Float64). Sparse codecs panic: an unsent coordinate's
// error equals its full magnitude and is bounded by the error-feedback
// residual, not by the codec, so a dense-style bound would let
// divergence tests pass vacuously — use MaxErrorKept for the
// coordinates a sparse frame actually carries.
func MaxError(c Codec, vec []float64) float64 {
	if c.Sparse() {
		panic(fmt.Sprintf("wire: MaxError(%s) is not defined for sparse codecs — unsent-coordinate error is the EF residual's contract; use MaxErrorKept", c))
	}
	dec, err := Decode(EncodeInto(nil, c, vec))
	if err != nil {
		panic(err) // encode→decode of a valid vector cannot fail
	}
	var m float64
	for i := range vec {
		if d := math.Abs(vec[i] - dec[i]); d > m {
			m = d
		}
	}
	return m
}

// rangeOf returns the finite min/max of vec. NaN and ±Inf are excluded
// so the Quant8 (min, scale) header always holds finite values and a
// decoded vector is always finite, whatever the input; with no finite
// value at all, both bounds are 0.
func rangeOf(vec []float64) (lo, hi float64) {
	seen := false
	for _, v := range vec {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if !seen {
			lo, hi, seen = v, v, true
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
