// Package transport is the simulator's communication subsystem: a
// coordinator/node protocol for running federated rounds across process
// and machine boundaries. A coordinator process owns the round schedule
// (the existing engine.RoundDriver, unchanged); node processes own
// client data and compute. Work orders and parameter updates travel as
// length-prefixed frames carrying internal/wire parameter encodings plus
// round metadata, so bytes on the wire are measured, not modeled.
//
// Two Transport implementations exist: Loopback executes requests
// in-process (zero-copy under the lossless codec — the reference used to
// prove the networked path bit-identical to the in-process engine) and
// TCP ships them over real sockets with connection reuse, concurrent
// in-flight requests, and per-request deadlines. See DESIGN.md §8 for
// the frame layout, handshake, deadline semantics, and the determinism
// contract.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// ProtoVersion is the protocol revision; Hello/Welcome exchange it and
// mismatches abort the handshake. Revision 2 added sparse uplinks: the
// spec's codec/topk_frac fields direct node behavior, update frames may
// carry TopK overlays, and requests always travel dense — a v1 peer
// would misprice or fail to decode all three.
const ProtoVersion = 2

// MaxFrame bounds a single frame's body. Large enough for any model this
// simulator trains (a Float64 frame for 16M parameters), small enough
// that a corrupt length prefix cannot drive an allocation bomb.
const MaxFrame = 1 << 27

// MsgType tags a frame's body.
type MsgType uint8

const (
	// MsgHello is the node's opener: protocol version + node name.
	MsgHello MsgType = 1
	// MsgWelcome is the coordinator's reply: version, the node's assigned
	// client range, and the environment spec the node replicates.
	MsgWelcome MsgType = 2
	// MsgTrain is a work order: round metadata + start parameters.
	MsgTrain MsgType = 3
	// MsgUpdate is a train result: status + update parameters (or an
	// error message).
	MsgUpdate MsgType = 4
	// MsgBye announces an orderly shutdown of the connection.
	MsgBye MsgType = 5
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgTrain:
		return "train"
	case MsgUpdate:
		return "update"
	case MsgBye:
		return "bye"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// beginFrame appends a frame header (length placeholder + type) to dst;
// the caller appends the body and finishes with endFrame. The in-place
// pair lets every sender build header and body in one reused buffer.
func beginFrame(dst []byte, t MsgType) []byte {
	return append(dst, 0, 0, 0, 0, byte(t))
}

// endFrame patches the length prefix of the frame begun at offset start.
func endFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start:start+4], uint32(len(dst)-start-4))
	return dst
}

// frameReader reads frames off a byte stream into a reused buffer.
// limit, when positive, tightens the MaxFrame bound — handshake readers
// set it so an unauthenticated peer's length prefix cannot force a
// large allocation before a single body byte has arrived.
type frameReader struct {
	r     io.Reader
	buf   []byte
	len   [4]byte
	limit int
}

// next reads one frame. The returned body aliases the reader's internal
// buffer and is valid until the following next call. n is the total wire
// size of the frame (body plus framing overhead).
func (fr *frameReader) next() (t MsgType, body []byte, n int, err error) {
	if _, err = io.ReadFull(fr.r, fr.len[:]); err != nil {
		return 0, nil, 0, err
	}
	max := fr.limit
	if max <= 0 {
		max = MaxFrame
	}
	size := int(binary.LittleEndian.Uint32(fr.len[:]))
	if size < 1 {
		return 0, nil, 0, fmt.Errorf("transport: zero-length frame")
	}
	if size > max {
		return 0, nil, 0, fmt.Errorf("transport: frame length %d exceeds limit %d", size, max)
	}
	if cap(fr.buf) < size {
		fr.buf = make([]byte, size)
	}
	frame := fr.buf[:size]
	if _, err = io.ReadFull(fr.r, frame); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // length said more was coming
		}
		return 0, nil, 0, fmt.Errorf("transport: truncated frame: %w", err)
	}
	return MsgType(frame[0]), frame[1:], size + 4, nil
}
