package transport

import (
	"encoding/binary"
	"fmt"
	"math"

	"fedclust/internal/fl"
	"fedclust/internal/wire"
)

// trainHeaderLen is the fixed metadata prefix of a MsgTrain body:
// request id, client, round, cluster, layer (5×u32/i32) plus the local
// config (epochs, batch as u32; lr, momentum, weight decay, prox mu as
// f64).
const trainHeaderLen = 7*4 + 4*8

// updateHeaderLen is the fixed prefix of a MsgUpdate body: request id
// (u32) + status (u8).
const updateHeaderLen = 5

// Update statuses.
const (
	statusOK     = 0
	statusFailed = 1
)

// trainMsg is a parsed MsgTrain body.
type trainMsg struct {
	ReqID                         uint32
	Client, Round, Cluster, Layer int
	Cfg                           fl.LocalConfig
	// Frame is the wire-encoded start vector. After parse it aliases the
	// connection's read buffer: decode before reading the next frame.
	Frame []byte
}

// appendTrainMsg appends the MsgTrain body for a request (everything but
// the enclosing frame) to dst.
func appendTrainMsg(dst []byte, reqID uint32, req *fl.RemoteRequest, codec wire.Codec) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, reqID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.Client))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.Round))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(req.Cluster)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(req.Layer)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.Cfg.Epochs))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.Cfg.BatchSize))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(req.Cfg.LR))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(req.Cfg.Momentum))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(req.Cfg.WeightDecay))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(req.Cfg.ProxMu))
	return wire.EncodeInto(dst, codec, req.Start)
}

// parseTrainMsg parses a MsgTrain body. It never panics: malformed
// bodies — a node must survive anything a peer sends — return an error.
func parseTrainMsg(body []byte) (trainMsg, error) {
	var m trainMsg
	if len(body) < trainHeaderLen {
		return m, fmt.Errorf("transport: train body %d bytes, want ≥%d", len(body), trainHeaderLen)
	}
	m.ReqID = binary.LittleEndian.Uint32(body[0:])
	m.Client = int(int32(binary.LittleEndian.Uint32(body[4:])))
	m.Round = int(int32(binary.LittleEndian.Uint32(body[8:])))
	m.Cluster = int(int32(binary.LittleEndian.Uint32(body[12:])))
	m.Layer = int(int32(binary.LittleEndian.Uint32(body[16:])))
	m.Cfg.Epochs = int(int32(binary.LittleEndian.Uint32(body[20:])))
	m.Cfg.BatchSize = int(int32(binary.LittleEndian.Uint32(body[24:])))
	m.Cfg.LR = math.Float64frombits(binary.LittleEndian.Uint64(body[28:]))
	m.Cfg.Momentum = math.Float64frombits(binary.LittleEndian.Uint64(body[36:]))
	m.Cfg.WeightDecay = math.Float64frombits(binary.LittleEndian.Uint64(body[44:]))
	m.Cfg.ProxMu = math.Float64frombits(binary.LittleEndian.Uint64(body[52:]))
	m.Frame = body[trainHeaderLen:]
	return m, nil
}

// appendUpdateOK appends the prefix of a successful MsgUpdate body: id
// and status. The encoded update vector follows (fl.Lane.VisitFrame
// appends it).
func appendUpdateOK(dst []byte, reqID uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, reqID)
	return append(dst, statusOK)
}

// appendUpdateErr appends a failed MsgUpdate body: id, status, u16
// message length, message.
func appendUpdateErr(dst []byte, reqID uint32, msg string) []byte {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	dst = binary.LittleEndian.AppendUint32(dst, reqID)
	dst = append(dst, statusFailed)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// updateMsg is a parsed MsgUpdate body.
type updateMsg struct {
	ReqID uint32
	// Err is the remote failure message ("" on success).
	Err string
	// Frame is the wire-encoded update vector on success (aliases the
	// read buffer).
	Frame []byte
}

// parseUpdateMsg parses a MsgUpdate body without panicking.
func parseUpdateMsg(body []byte) (updateMsg, error) {
	var m updateMsg
	if len(body) < updateHeaderLen {
		return m, fmt.Errorf("transport: update body %d bytes, want ≥%d", len(body), updateHeaderLen)
	}
	m.ReqID = binary.LittleEndian.Uint32(body[0:])
	switch body[4] {
	case statusOK:
		m.Frame = body[updateHeaderLen:]
		return m, nil
	case statusFailed:
		rest := body[updateHeaderLen:]
		if len(rest) < 2 {
			return m, fmt.Errorf("transport: truncated failure message")
		}
		n := int(binary.LittleEndian.Uint16(rest))
		if len(rest) < 2+n {
			return m, fmt.Errorf("transport: failure message %d bytes, body has %d", n, len(rest)-2)
		}
		m.Err = string(rest[2 : 2+n])
		if m.Err == "" {
			m.Err = "remote failure (no message)"
		}
		return m, nil
	default:
		return m, fmt.Errorf("transport: unknown update status %d", body[4])
	}
}

// appendHello appends a MsgHello body: version + node name.
func appendHello(dst []byte, name string) []byte {
	if len(name) > math.MaxUint16 {
		name = name[:math.MaxUint16]
	}
	dst = binary.LittleEndian.AppendUint32(dst, ProtoVersion)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	return append(dst, name...)
}

// parseHello parses a MsgHello body.
func parseHello(body []byte) (name string, err error) {
	if len(body) < 6 {
		return "", fmt.Errorf("transport: hello body %d bytes, want ≥6", len(body))
	}
	if v := binary.LittleEndian.Uint32(body); v != ProtoVersion {
		return "", fmt.Errorf("transport: protocol version %d, want %d", v, ProtoVersion)
	}
	n := int(binary.LittleEndian.Uint16(body[4:]))
	if len(body) < 6+n {
		return "", fmt.Errorf("transport: hello name %d bytes, body has %d", n, len(body)-6)
	}
	return string(body[6 : 6+n]), nil
}

// appendWelcome appends a MsgWelcome body: version, assigned client
// range [lo, hi), spec payload.
func appendWelcome(dst []byte, lo, hi int, spec []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, ProtoVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(lo)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(hi)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(spec)))
	return append(dst, spec...)
}

// parseWelcome parses a MsgWelcome body.
func parseWelcome(body []byte) (lo, hi int, spec []byte, err error) {
	if len(body) < 16 {
		return 0, 0, nil, fmt.Errorf("transport: welcome body %d bytes, want ≥16", len(body))
	}
	if v := binary.LittleEndian.Uint32(body); v != ProtoVersion {
		return 0, 0, nil, fmt.Errorf("transport: protocol version %d, want %d", v, ProtoVersion)
	}
	lo = int(int32(binary.LittleEndian.Uint32(body[4:])))
	hi = int(int32(binary.LittleEndian.Uint32(body[8:])))
	n := int(binary.LittleEndian.Uint32(body[12:]))
	if n < 0 || len(body) < 16+n {
		return 0, 0, nil, fmt.Errorf("transport: welcome spec %d bytes, body has %d", n, len(body)-16)
	}
	return lo, hi, body[16 : 16+n], nil
}
