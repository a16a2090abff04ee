package fl

import (
	"fmt"

	"fedclust/internal/wire"
)

// CommStats is the run's byte ledger (DESIGN.md §8): every exchange the
// protocol makes, priced once by the closed-form frame sizes, wherever
// the client trains. Uplink is client→server, downlink server→client.
type CommStats struct {
	UpBytes   int64
	DownBytes int64
	// Pricing converts the scalar counts below into framed transport
	// bytes under the environment's codec selection. The zero value
	// prices dense Float64 frames.
	Pricing CommPricing
	// PerRound records (up, down) per completed round for plots.
	PerRound []RoundComm
	// MeasuredUp/MeasuredDown are what an attached transport's sockets
	// actually carried (Measured) — the cross-check of the ledger, not a
	// part of it. They equal the totals on a fault-free fully-remote run;
	// retries and crash-dropped uplinks push them above, clients trained
	// in-process and skipped visits leave them below.
	MeasuredUp   int64
	MeasuredDown int64
	// snapUp/snapDown are the totals already snapshotted into PerRound,
	// so EndRound is O(1) instead of re-summing the whole history each
	// round.
	snapUp, snapDown int64
}

// RoundComm is one round's traffic.
type RoundComm struct {
	Round     int
	UpBytes   int64
	DownBytes int64
}

// Upload records nClients uplinks of an nParams-vector, priced as the
// framed transport messages they would occupy under Pricing (codec
// payload + metadata + envelope — not a flat 8 bytes/param).
func (c *CommStats) Upload(nClients, nParams int) {
	c.UpBytes += int64(nClients) * c.Pricing.UploadBytesFor(nParams)
}

// UploadDense records nClients uplinks of a dense nParams-vector under
// an explicit codec, bypassing any sparse uplink pricing — for partial
// exchanges (e.g. FedClust's final-layer warmup) that always travel
// dense even when the full-parameter uplink is sparsified.
func (c *CommStats) UploadDense(nClients, nParams int, codec wire.Codec) {
	c.UpBytes += int64(nClients) * TrainResponseBytes(codec, nParams)
}

// Download records nClients downlinks of an nParams-vector, priced like
// Upload but under the broadcast codec.
func (c *CommStats) Download(nClients, nParams int) {
	c.DownBytes += int64(nClients) * c.Pricing.DownloadBytesFor(nParams)
}

// Measured records framed bytes an attached transport actually moved
// (down server→client, up client→server). It never touches the ledger.
func (c *CommStats) Measured(down, up int64) { c.MeasuredDown += down; c.MeasuredUp += up }

// EndRound snapshots the traffic delta since the previous EndRound call.
func (c *CommStats) EndRound(round int) {
	c.PerRound = append(c.PerRound, RoundComm{
		Round:     round,
		UpBytes:   c.UpBytes - c.snapUp,
		DownBytes: c.DownBytes - c.snapDown,
	})
	c.snapUp, c.snapDown = c.UpBytes, c.DownBytes
}

// Total returns up+down bytes.
func (c *CommStats) Total() int64 { return c.UpBytes + c.DownBytes }

// String formats the totals human-readably.
func (c *CommStats) String() string {
	return fmt.Sprintf("up %s, down %s", FormatBytes(c.UpBytes), FormatBytes(c.DownBytes))
}

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}
