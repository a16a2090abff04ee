package transport

// Fuzz coverage for the transport's stream decoding: a coordinator and a
// node must both survive arbitrary bytes on the wire, so the frame
// reader and every message parser are total — error out, never panic,
// never over-allocate off a hostile length prefix. The seed corpus
// (testdata/fuzz/FuzzFrame) checks in the interesting shapes: valid
// frames of every message type, truncations at each boundary, corrupt
// length prefixes, and mid-stream cuts.

import (
	"bytes"
	"io"
	"testing"

	"fedclust/internal/fl"
	"fedclust/internal/wire"
)

// frameOverhead is the per-frame wire cost outside the body: the u32
// length prefix plus the u8 message type.
const frameOverhead = 5

// FuzzFrame feeds a byte stream to the frame reader and parses every
// frame it yields with the type's message parser.
func FuzzFrame(f *testing.F) {
	// Valid traffic of every type.
	req := &fl.RemoteRequest{
		Client: 3, Round: 2, Cluster: 1, Layer: fl.FullParams,
		Cfg:   fl.LocalConfig{Epochs: 2, BatchSize: 16, LR: 0.1, Momentum: 0.9},
		Start: []float64{1.5, -2.25, 0, 3e8},
	}
	train := endFrame(appendTrainMsg(beginFrame(nil, MsgTrain), 7, req, wire.Float64), 0)
	f.Add(train)
	update := endFrame(wire.EncodeInto(appendUpdateOK(beginFrame(nil, MsgUpdate), 7), wire.Quant8, []float64{1, 2, 3}), 0)
	f.Add(update)
	f.Add(endFrame(appendUpdateErr(beginFrame(nil, MsgUpdate), 9, "client 99 outside population"), 0))
	f.Add(endFrame(appendHello(beginFrame(nil, MsgHello), "node-1"), 0))
	f.Add(endFrame(appendWelcome(beginFrame(nil, MsgWelcome), 0, 3, []byte(`{"seed":1}`)), 0))
	f.Add(endFrame(beginFrame(nil, MsgBye), 0))
	// Two frames back to back: the reader must hand out both.
	f.Add(append(append([]byte(nil), train...), update...))
	// Malformed streams.
	f.Add(train[:3])                                  // cut inside the length prefix
	f.Add(train[:4])                                  // length prefix only (mid-stream disconnect)
	f.Add(train[:len(train)-9])                       // cut inside the wire payload
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 3})          // absurd length prefix
	f.Add([]byte{0, 0, 0, 0})                         // zero-length frame
	bad := append([]byte(nil), train...)
	bad[4] = 0x63 // unknown message type
	f.Add(bad)
	short := endFrame(append(beginFrame(nil, MsgTrain), 1, 2, 3), 0) // body below trainHeaderLen
	f.Add(short)

	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := &frameReader{r: bytes.NewReader(stream)}
		for {
			typ, body, n, err := fr.next()
			if err != nil {
				if err != io.EOF && n != 0 {
					t.Fatalf("frame reader reported %d consumed bytes alongside error %v", n, err)
				}
				return
			}
			if n != len(body)+frameOverhead {
				t.Fatalf("frame accounting off: n=%d body=%d", n, len(body))
			}
			// Every parser must be total on its frame type.
			switch typ {
			case MsgTrain:
				if m, err := parseTrainMsg(body); err == nil {
					_, _ = wire.Decode(m.Frame)
					_ = m.Cfg.Check()
				}
			case MsgUpdate:
				if m, err := parseUpdateMsg(body); err == nil && m.Err == "" {
					_, _ = wire.Decode(m.Frame)
				}
			case MsgHello:
				_, _ = parseHello(body)
			case MsgWelcome:
				if _, _, spec, err := parseWelcome(body); err == nil {
					_, _ = ParseSpec(spec)
				}
			}
		}
	})
}

// TestTrainMsgRoundTrip pins the binary layout: build → parse returns
// every field bit-exactly.
func TestTrainMsgRoundTrip(t *testing.T) {
	req := &fl.RemoteRequest{
		Client: 42, Round: 1 << 20, Cluster: -1, Layer: fl.FinalLayer,
		Cfg:   fl.LocalConfig{Epochs: 3, BatchSize: 32, LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, ProxMu: 0.1},
		Start: []float64{3.25, -1e300, 0},
	}
	body := appendTrainMsg(nil, 99, req, wire.Float64)
	m, err := parseTrainMsg(body)
	if err != nil {
		t.Fatal(err)
	}
	if m.ReqID != 99 || m.Client != 42 || m.Round != 1<<20 || m.Cluster != -1 || m.Layer != fl.FinalLayer {
		t.Fatalf("metadata drifted: %+v", m)
	}
	if m.Cfg != req.Cfg {
		t.Fatalf("config drifted: %+v != %+v", m.Cfg, req.Cfg)
	}
	vec, err := wire.Decode(m.Frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range req.Start {
		if vec[i] != req.Start[i] {
			t.Fatalf("start vector drifted at %d", i)
		}
	}
}

// fuzzSpecBudget bounds the examples × pixels a fuzzed spec may
// materialise: above it, a spec that passes check is skipped, not built.
const fuzzSpecBudget = 1 << 18

// FuzzSpecBuild: a spec off the wire either builds an environment or is
// rejected with an error, and never panics. The seed corpus
// (testdata/fuzz/FuzzSpecBuild) holds fedsim serve's quick spec and the
// shapes that only a panic inside the substrate used to reject: a test
// split of zero, a label in two groups, negative noise, negative class
// separation.
func FuzzSpecBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := ParseSpec(b)
		if err != nil {
			return
		}
		d := s.Dataset
		if s.check() == nil && int64(d.TrainPerClass+d.TestPerClass)*int64(d.Classes)*int64(d.C*d.H*d.W) > fuzzSpecBudget {
			t.Skip("passes check but is too large to materialise while fuzzing")
		}
		env, err := s.Build()
		if (env == nil) == (err == nil) {
			t.Fatalf("Build returned an environment %t and error %v", env != nil, err)
		}
	})
}
