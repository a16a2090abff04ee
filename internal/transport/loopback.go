package transport

import (
	"fedclust/internal/fl"
	"fedclust/internal/obs"
	"fedclust/internal/wire"
)

// Loopback is the in-process transport: requests execute directly on a
// Service, with no sockets and — under the lossless Float64 codec — no
// copies of the parameter vectors at all. It accounts the exact frame
// sizes the TCP transport would put on the wire for the same exchange,
// so communication stats over loopback equal a real networked run's
// measured bytes, byte for byte.
//
// Determinism contract: a loopback exchange is the Service's fl.Lane
// visit with the wire's codecs passed in — the start narrowed through
// the downlink codec, the report through the uplink codec, each by
// encoding and decoding the very frame a socket pair would carry — so
// loopback matches TCP, and both match the in-process engine path,
// under every codec.
type Loopback struct {
	svc   *Service
	codec wire.Codec
	// m is the telemetry bundle, labeled node="loopback"; updates are
	// gated on the process telemetry switch.
	m *nodeMetrics
}

// NewLoopback wraps a service in a loopback transport under codec c.
// A sparse codec requires a service whose env replica selected the same
// sparsification (the node owns the error-feedback residuals); a
// mismatch is a construction bug and panics.
func NewLoopback(svc *Service, c wire.Codec) *Loopback {
	if c.Sparse() != svc.Sparse() {
		panic("transport: loopback codec and service env disagree about sparsification")
	}
	return &Loopback{svc: svc, codec: c, m: newNodeMetrics("loopback")}
}

// Train implements Transport.
func (l *Loopback) Train(req *fl.RemoteRequest, out []float64) (down, up int64, err error) {
	rtt := obs.StartSpan(l.m.rtt)
	down, up, err = l.train(req, out)
	rtt.End()
	if obs.Enabled() {
		l.m.requests.Inc()
		l.m.downBytes.Add(uint64(down))
		l.m.upBytes.Add(uint64(up))
		if err != nil {
			l.m.errors.Inc()
		}
	}
	return down, up, err
}

func (l *Loopback) train(req *fl.RemoteRequest, out []float64) (down, up int64, err error) {
	// Requests travel under the downlink codec: dense codecs are
	// symmetric, sparse codecs broadcast dense Float64. Frame sizes are
	// deterministic in (codec, n, kept fraction), so the accounting needs
	// no bytes in flight.
	dc := l.codec.Downlink()
	down = fl.TrainRequestBytes(dc, len(req.Start))
	if err := l.svc.execute(req, out, dc, l.codec); err != nil {
		return down, 0, err
	}
	if n := len(out); l.codec.Sparse() && req.Layer == fl.FullParams {
		up = fl.TrainResponseBytesSparse(l.codec, n, wire.TopKCount(n, l.svc.ef.Frac))
	} else {
		up = fl.TrainResponseBytes(dc, n)
	}
	return down, up, nil
}

// Close implements Transport (no resources to release).
func (*Loopback) Close() error { return nil }
