package transport

import (
	"net"
	"time"

	"fedclust/internal/fl"
	"fedclust/internal/wire"
)

// NewTCPForTest wraps an arbitrary established connection in the TCP
// transport (no handshake), for protocol-level tests over net.Pipe.
func NewTCPForTest(conn net.Conn, codec wire.Codec, timeout time.Duration) *TCP {
	return newTCP(conn, "test", codec, timeout)
}

// AbortForTest severs the connection without the Bye farewell — the
// node sees a mid-run disconnect, exactly what a coordinator crash
// (or a kill -9 before restart-from-checkpoint) looks like on the wire.
func (t *TCP) AbortForTest() { t.conn.Close() }

// AppendTrainFrameForTest builds a complete train request frame — the
// exact bytes TCP.Train writes — for size and protocol tests.
func AppendTrainFrameForTest(dst []byte, id uint32, req *fl.RemoteRequest, codec wire.Codec) []byte {
	start := len(dst)
	return endFrame(appendTrainMsg(beginFrame(dst, MsgTrain), id, req, codec), start)
}

// NumParams returns the scalar parameter count of the replica's model.
func (s *Service) NumParams() int { return s.numParams }
