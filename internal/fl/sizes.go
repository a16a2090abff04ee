package fl

import "fedclust/internal/wire"

// The transport's message geometry, mirrored here so in-process runs can
// price exactly what a networked run would measure. internal/transport
// asserts these against its real frame layout (it imports fl; the
// reverse would cycle), so the two cannot drift silently.
const (
	// msgFrameOverhead is the per-message multiplexing envelope: 4-byte
	// length prefix + 1-byte message type.
	msgFrameOverhead = 5
	// trainMetaLen is the train-request metadata ahead of the parameter
	// frame: request id, client, round, cluster, layer, epochs, batch
	// (7×u32) + lr, momentum, weight decay, prox mu (4×f64).
	trainMetaLen = 7*4 + 4*8
	// updateMetaLen is the update-response metadata ahead of the
	// parameter frame: request id (u32) + status byte.
	updateMetaLen = 4 + 1
)

// TrainRequestBytes is the full wire size of one server→client train
// request carrying an n-vector under codec c — envelope, metadata, and
// encoded parameter frame.
func TrainRequestBytes(c wire.Codec, n int) int64 {
	return int64(msgFrameOverhead + trainMetaLen + wire.EncodedSize(c, n))
}

// TrainResponseBytes is the full wire size of one client→server update
// response carrying a dense n-vector under codec c.
func TrainResponseBytes(c wire.Codec, n int) int64 {
	return int64(msgFrameOverhead + updateMetaLen + wire.EncodedSize(c, n))
}

// TrainResponseBytesSparse is TrainResponseBytes for a sparse uplink
// keeping k of n coordinates; dense codecs ignore k.
func TrainResponseBytesSparse(c wire.Codec, n, k int) int64 {
	return int64(msgFrameOverhead + updateMetaLen + wire.EncodedSizeSparse(c, n, k))
}

// DefaultTopKFrac is the kept fraction a sparse codec runs at when the
// environment leaves TopKFrac zero — the paper-standard 1%.
const DefaultTopKFrac = 0.01

// NormalizeTopKFrac maps an Env.TopKFrac setting to the effective kept
// fraction: zero (unset) becomes DefaultTopKFrac, and values are clamped
// to (0, 1].
func NormalizeTopKFrac(f float64) float64 {
	if f <= 0 {
		return DefaultTopKFrac
	}
	if f > 1 {
		return 1
	}
	return f
}

// CommPricing fixes how CommStats converts scalar counts into framed
// transport bytes: the downlink codec, the uplink codec, and — for
// sparse uplinks — the kept fraction. The zero value prices both
// directions as dense Float64 frames, the historical behavior.
type CommPricing struct {
	Down   wire.Codec
	Up     wire.Codec
	UpFrac float64
}

// PricingFor derives the pricing for an environment's codec selection:
// the uplink carries c, the downlink carries c.Downlink() (sparse codecs
// broadcast dense), and sparse uplinks keep NormalizeTopKFrac(frac).
func PricingFor(c wire.Codec, frac float64) CommPricing {
	p := CommPricing{Down: c.Downlink(), Up: c}
	if c.Sparse() {
		p.UpFrac = NormalizeTopKFrac(frac)
	}
	return p
}

// UploadBytesFor returns the priced wire size of one client's uplink of
// an n-vector under this pricing.
func (p CommPricing) UploadBytesFor(n int) int64 {
	if p.Up.Sparse() {
		return TrainResponseBytesSparse(p.Up, n, wire.TopKCount(n, p.UpFrac))
	}
	return TrainResponseBytes(p.Up, n)
}

// DownloadBytesFor returns the priced wire size of one client's downlink
// of an n-vector under this pricing.
func (p CommPricing) DownloadBytesFor(n int) int64 {
	return TrainRequestBytes(p.Down, n)
}
