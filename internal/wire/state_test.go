package wire

import (
	"bytes"
	"testing"
)

func TestStateFrameRoundTrip(t *testing.T) {
	words := []uint64{0, 1, ^uint64(0), 0xdeadbeef, 42}
	frame := AppendStateFrame(nil, 7, words)
	if len(frame) != StateFrameSize(len(words)) {
		t.Fatalf("frame size %d, want %d", len(frame), StateFrameSize(len(words)))
	}
	kind, got, err := DecodeStateFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if kind != 7 {
		t.Errorf("kind %d, want 7", kind)
	}
	if len(got) != len(words) {
		t.Fatalf("decoded %d words, want %d", len(got), len(words))
	}
	for i := range words {
		if got[i] != words[i] {
			t.Errorf("word %d: %d, want %d", i, got[i], words[i])
		}
	}
}

func TestStateFrameMidBuffer(t *testing.T) {
	// Two frames back to back, split apart via StateFrameLen.
	buf := AppendStateFrame(nil, 1, []uint64{10, 20})
	buf = AppendStateFrame(buf, 2, []uint64{30})
	n1, err := StateFrameLen(buf, len(buf))
	if err != nil {
		t.Fatalf("StateFrameLen: %v", err)
	}
	if k, w, err := DecodeStateFrame(buf[:n1]); err != nil || k != 1 || len(w) != 2 {
		t.Fatalf("first frame: kind %d words %v err %v", k, w, err)
	}
	n2, err := StateFrameLen(buf[n1:], len(buf))
	if err != nil {
		t.Fatalf("StateFrameLen(second): %v", err)
	}
	if n1+n2 != len(buf) {
		t.Fatalf("frames cover %d of %d bytes", n1+n2, len(buf))
	}
	if k, w, err := DecodeStateFrame(buf[n1:]); err != nil || k != 2 || w[0] != 30 {
		t.Fatalf("second frame: kind %d words %v err %v", k, w, err)
	}
}

func TestStateFrameRejectsCorruption(t *testing.T) {
	frame := AppendStateFrame(nil, 3, []uint64{1, 2, 3})
	cases := map[string][]byte{
		"truncated":  frame[:len(frame)-1],
		"bad magic":  append([]byte{0xff}, frame[1:]...),
		"bit flip":   flip(frame, 9),
		"crc flip":   flip(frame, len(frame)-2),
		"count lies": flip(frame, 4),
		"empty":      {},
	}
	for name, f := range cases {
		if _, _, err := DecodeStateFrame(f); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestStateFrameLenBounds(t *testing.T) {
	frame := AppendStateFrame(nil, 0, make([]uint64, 100))
	if _, err := StateFrameLen(frame, 50); err == nil {
		t.Error("oversized frame accepted under tight limit")
	}
	// A hostile count must not overflow into a small positive size.
	hostile := append([]byte(nil), frame[:8]...)
	hostile[4], hostile[5], hostile[6], hostile[7] = 0xff, 0xff, 0xff, 0xff
	if _, err := StateFrameLen(hostile, 1<<20); err == nil {
		t.Error("u32-max count accepted")
	}
}

func TestFrameLen(t *testing.T) {
	for _, c := range []Codec{Float64, Float32, Quant8} {
		vec := []float64{1, 2, 3, 4}
		frame := EncodeInto(nil, c, vec)
		frame = append(frame, 0xab, 0xcd) // trailing garbage from a later frame
		n, err := FrameLen(frame, len(frame))
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if n != EncodedSize(c, len(vec)) {
			t.Errorf("%s: len %d, want %d", c, n, EncodedSize(c, len(vec)))
		}
		if _, err := Decode(frame[:n]); err != nil {
			t.Errorf("%s: sliced frame fails decode: %v", c, err)
		}
	}
	if _, err := FrameLen([]byte{1, 2}, 100); err == nil {
		t.Error("short buffer accepted")
	}
}

func flip(b []byte, i int) []byte {
	out := bytes.Clone(b)
	out[i] ^= 0x40
	return out
}
