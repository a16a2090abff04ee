package transport

import (
	"bytes"
	"fmt"
	"time"
)

// ServeLoop runs a node with rejoin: dial the coordinator, handshake,
// serve until the session ends — and when it ends without a Bye (the
// coordinator crashed or is restarting from a checkpoint), keep re-dialing
// every interval for up to window, verifying that the restarted
// coordinator presents the same spec bytes before serving again.
//
// build is called once, after the first successful handshake, to
// construct the node's service from the spec payload; later joins reuse
// it (the environment replica is a pure function of the spec). ServeLoop
// returns nil after an orderly Bye, and an error when the first join or
// build fails, the rejoin window expires, a restarted coordinator
// presents a different spec, or the protocol breaks. window <= 0
// disables rejoining entirely (one session, like ServeConn).
func ServeLoop(addr, name string, window, interval time.Duration, build func(lo, hi int, spec []byte) (*Service, error)) error {
	if interval <= 0 {
		interval = time.Second
	}
	var (
		svc    *Service // built at the first handshake; nil until then
		joined []byte   // that handshake's spec
	)
	var deadline time.Time
	for {
		conn, lo, hi, spec, err := Join(addr, name)
		if err != nil {
			if svc == nil {
				return err // never handshaked: fail loudly, nothing to resume
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("transport: rejoin window %v expired: %w", window, err)
			}
			time.Sleep(interval)
			continue
		}
		if svc == nil {
			if svc, err = build(lo, hi, spec); err != nil {
				conn.Close()
				return err
			}
			joined = spec
		} else if !bytes.Equal(spec, joined) {
			conn.Close()
			return fmt.Errorf("transport: coordinator came back with a different spec (%d bytes, joined under %d)", len(spec), len(joined))
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
