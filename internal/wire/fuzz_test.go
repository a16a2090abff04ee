package wire

// Fuzz coverage for the frame decoder: a server must survive arbitrary
// client uploads, so Decode must never panic — it returns an error for
// every malformed frame. The seed corpus (testdata/fuzz/FuzzDecode)
// checks in the interesting shapes: valid frames under every codec,
// truncations at each boundary, and corrupt length prefixes (zero,
// oversized, and overflow-adjacent counts) so even the plain `go test`
// run exercises them.

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecode asserts Decode is total: any byte string either decodes to
// exactly the count its header promises or fails with an error. A valid
// Float64 frame must also re-encode to identical bytes (its decoded
// values round-trip bit-exactly; the narrowing codecs are excluded — a
// checksum-valid crafted frame can hold float32 NaN payloads that the
// f32→f64→f32 trip quiets, or a Quant8 (min, scale) header that differs
// from the decoded values' own range).
func FuzzDecode(f *testing.F) {
	for _, c := range []Codec{Float64, Float32, Quant8} {
		f.Add(EncodeInto(nil, c, nil))
		f.Add(EncodeInto(nil, c, []float64{1.5, -2.25, 3e8, 0}))
	}
	valid := EncodeInto(nil, Float64, []float64{7, -7})
	f.Add(valid[:0])            // empty input
	f.Add(valid[:headerLen-1])  // truncated inside the fixed header
	f.Add(valid[:headerLen+3])  // truncated inside the payload
	f.Add(valid[:len(valid)-1]) // truncated checksum
	oversized := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(oversized[4:8], 1<<31-1) // count ≫ payload
	f.Add(oversized)
	undersized := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(undersized[4:8], 0) // count < payload
	f.Add(undersized)
	badCodec := append([]byte(nil), valid...)
	badCodec[2] = 0x7f
	f.Add(badCodec)
	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 0
	f.Add(badMagic)

	// Sparse frames: their count field is decoupled from the byte length
	// (k is what's on the wire), so they get their own seed shapes —
	// valid overlays, truncations, index-contract violations (duplicate,
	// descending, out-of-range), and an allocation-bomb count.
	sparseVec := []float64{0.5, -1.25, 2, -3, 0.75, 4.5}
	for _, c := range []Codec{TopK, TopKQuant8} {
		f.Add(EncodeSparseInto(nil, c, len(sparseVec), []uint32{1, 3, 5}, []float64{-1.25, -3, 4.5}))
	}
	sv := EncodeSparseInto(nil, TopK, len(sparseVec), []uint32{1, 3, 5}, []float64{-1.25, -3, 4.5})
	f.Add(sv[:headerLen+2]) // truncated inside the kept count
	f.Add(sv[:headerLen+9]) // truncated inside the index section
	f.Add(sv[:len(sv)-3])   // truncated inside the checksum
	reseal := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}
	dupIdx := append([]byte(nil), sv...)
	copy(dupIdx[headerLen+4+4:], dupIdx[headerLen+4:headerLen+4+4]) // index 1 twice
	f.Add(reseal(dupIdx))
	descIdx := append([]byte(nil), sv...)
	copy(descIdx[headerLen+4:], []byte{5, 0, 0, 0}) // 5, 3, 5
	f.Add(reseal(descIdx))
	rangeIdx := append([]byte(nil), sv...)
	binary.LittleEndian.PutUint32(rangeIdx[headerLen+4+4*2:], uint32(len(sparseVec))) // == n
	f.Add(reseal(rangeIdx))
	bombCount := append([]byte(nil), sv...)
	binary.LittleEndian.PutUint32(bombCount[4:8], 1<<30) // n ≫ maxSparseDecode
	f.Add(reseal(bombCount))

	f.Fuzz(func(t *testing.T, frame []byte) {
		vec, err := Decode(frame) // must not panic, whatever the input
		if err != nil {
			return
		}
		if want := int(binary.LittleEndian.Uint32(frame[4:8])); len(vec) != want {
			t.Fatalf("decoded %d values, header promised %d", len(vec), want)
		}
		if c := Codec(frame[2]); c == Float64 {
			if got := EncodeInto(nil, c, vec); string(got) != string(frame) {
				t.Fatalf("re-encode of a valid frame diverged:\n got %x\nwant %x", got, frame)
			}
		}
	})
}
