package transport

import (
	"fmt"
	"time"
)

// SpecHash fingerprints a run's spec payload (FNV-1a 64 over the
// welcome's spec bytes). It is the run's identity across coordinator
// restarts: a rejoining node and a resuming coordinator both compare it,
// so state from one run can never continue under another's
// configuration. The hash starts from 1469598103934665603, FNV's offset
// basis with its last digit dropped, so hash/fnv cannot stand in;
// checkpoints stamp the result, so the basis stays (TestSpecHashPinned).
func SpecHash(spec []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range spec {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// ServeLoop runs a node with rejoin: dial the coordinator, handshake,
// serve until the session ends — and when it ends without a Bye (the
// coordinator crashed or is restarting from a checkpoint), keep re-dialing
// every interval for up to window, verifying via SpecHash that the
// restarted coordinator is running the same spec before serving again.
//
// build is called once, after the first successful handshake, to
// construct the node's service from the spec payload; later joins reuse
// it (the environment replica is a pure function of the spec, which the
// hash pins). ServeLoop returns nil after an orderly Bye, and an error
// when the first join or build fails, the rejoin window expires, a
// restarted coordinator presents a different spec, or the protocol
// breaks. window <= 0 disables rejoining entirely (one session, like
// ServeConn).
func ServeLoop(addr, name string, window, interval time.Duration, build func(lo, hi int, spec []byte) (*Service, error)) error {
	if interval <= 0 {
		interval = time.Second
	}
	var (
		svc      *Service
		specHash uint64
		joined   bool
	)
	var deadline time.Time
	for {
		conn, lo, hi, spec, err := Join(addr, name)
		if err != nil {
			if !joined {
				return err // never handshaked: fail loudly, nothing to resume
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("transport: rejoin window %v expired: %w", window, err)
			}
			time.Sleep(interval)
			continue
		}
		h := SpecHash(spec)
		if !joined {
			if svc, err = build(lo, hi, spec); err != nil {
				conn.Close()
				return err
			}
			specHash, joined = h, true
		} else if h != specHash {
			conn.Close()
			return fmt.Errorf("transport: coordinator came back with a different spec (hash %#x, joined under %#x)", h, specHash)
		}
		bye, err := svc.Serve(conn)
		if bye {
			return nil
		}
		if window <= 0 {
			return err
		}
		// Disconnect without Bye: open the rejoin window from now and keep
		// dialing. A protocol error still rejoins — the restarted
		// coordinator gets a fresh session either way.
		deadline = time.Now().Add(window)
	}
}
