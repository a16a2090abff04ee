package fl

// Vector selectors for RemoteRequest.Layer: which slice of the trained
// model the remote executor returns. There is no third selector; a node
// rejects any other value.
const (
	// FullParams requests the complete flattened parameter vector — the
	// normal per-round update upload.
	FullParams = -1
	// FinalLayer requests only the last weight layer — FedClust's
	// partial-weight clustering upload, which must stay partial on the
	// wire for the paper's communication-cost claim to hold end to end.
	FinalLayer = -2
)

// RemoteRequest is one client-visit work order shipped to wherever the
// client's data lives: load Start, run the local pass for the visit's
// deterministic (Client, Round) stream under Cfg, return the vector
// selected by Layer.
type RemoteRequest struct {
	// Client is the global client index; Round the visit's round number
	// (the engine's warmup phases use out-of-band round ids).
	Client, Round int
	// Cluster is the client's cluster id under a clustered schedule, -1
	// otherwise. Informational round metadata — the executor's arithmetic
	// never depends on it.
	Cluster int
	// Layer selects the returned vector: FullParams or FinalLayer.
	Layer int
	// Cfg is the effective local-training configuration for this visit
	// (epochs already scenario-adjusted; ProxMu set for FedProx runs).
	// The executor trains with it, not with its own replica's defaults.
	Cfg LocalConfig
	// Start is the starting parameter vector (read-only; valid only for
	// the duration of the call).
	Start []float64
}

// RemoteTrainer routes client visits to remote executors. The engine's
// default local pass and FedClust's warmup phase consult it: clients it
// Owns train wherever the trainer points (another process, another
// machine), everyone else trains in-process — one round loop drives a
// mix of local and remote clients.
//
// Implementations (internal/transport.Fleet) must be safe for concurrent
// Train calls — the engine issues one per parallel client visit — and
// Owns must be a pure function of the client index for the lifetime of a
// run.
type RemoteTrainer interface {
	// Owns reports whether client's data and compute live remotely.
	Owns(client int) bool
	// Train executes the request and writes the selected vector into out
	// (whose length picks the expected dimension). It returns the number
	// of bytes that went down (server→client) and up (client→server) on
	// the wire — measured when a real transport carried the exchange,
	// computed frame sizes for in-process loopback — and a non-nil error
	// when the update did not arrive (timeout, disconnect, remote
	// failure). On error the engine treats the client like a dropout:
	// excluded from the round's reported set. The byte counts feed only
	// CommStats.Measured*, the ledger's cross-check; the ledger itself is
	// priced by the engine, once, for every execution mode.
	Train(req *RemoteRequest, out []float64) (down, up int64, err error)
}
