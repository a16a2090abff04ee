package transport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"fedclust/internal/fl"
	"fedclust/internal/wire"
)

// writeTimeout bounds any single frame write so a dead peer cannot park
// a sender forever.
const writeTimeout = 30 * time.Second

// Service executes train work orders against a local replica of the
// environment — the node side of every transport. It owns a pool of
// execution slots (one fl.Lane each, sized to the environment's worker
// count) so concurrent requests train on warm state without locking;
// slot checkout is the node's backpressure. A slot execution is the very
// fl.Lane visit the engine runs for an in-process client — the Service
// only validates the request (it may have arrived off a wire) and picks
// the codecs — which is what makes a networked round bit-identical to an
// in-process one under every codec.
type Service struct {
	env       *fl.Env
	numParams int
	finalDim  int // scalars in the model's final weight layer
	slots     chan *slot
	// ef is the node-held error-feedback accumulator, non-nil when the
	// replica environment selects a sparse uplink codec: the residuals
	// live where the training runs, so a remote client's dropped
	// coordinates are fed back by the node itself, round after round —
	// the coordinator only ever sees sparse frames. (They live in this
	// process: a node restart loses them, a coordinator restart does
	// not — see DESIGN.md §12.)
	ef *fl.ErrorFeedback
}

// slot is one execution lane plus the buffers of the connection path.
type slot struct {
	*fl.Lane
	vec []float64 // decoded start parameters (reused)
	out []float64 // result vector backing store (cap numParams)
	enc []byte    // response frame build buffer (reused)
}

// NewService builds a service over the node's environment replica with
// env.WorkerCount() execution slots. env is one Spec.Build returned, or an
// in-process one, so it has passed Env.Check already.
func NewService(env *fl.Env) *Service {
	lanes := fl.NewLanes(env)
	s := &Service{
		env:       env,
		numParams: lanes[0].NumParams(),
		finalDim:  lanes[0].FinalDim(),
		slots:     make(chan *slot, len(lanes)),
	}
	if env.Codec.Sparse() {
		s.ef = fl.NewErrorFeedback(env.Codec, fl.NormalizeTopKFrac(env.TopKFrac), len(env.Clients), s.numParams)
	}
	for _, l := range lanes {
		s.slots <- &slot{Lane: l, out: make([]float64, s.numParams)}
	}
	return s
}

// Sparse reports whether this node sparsifies full-parameter uplinks
// (the replica environment selected a sparse codec).
func (s *Service) Sparse() bool { return s.ef != nil }

// check validates a work order and returns the result dimension its
// layer selector produces. Every failure is an error, never a panic —
// requests may arrive off the wire.
func (s *Service) check(req *fl.RemoteRequest) (n int, err error) {
	if req.Client < 0 || req.Client >= len(s.env.Clients) {
		return 0, fmt.Errorf("transport: client %d outside population of %d", req.Client, len(s.env.Clients))
	}
	// One rule set, shared with in-process training, that never panics.
	if err := req.Cfg.Check(); err != nil {
		return 0, err
	}
	if len(req.Start) != s.numParams {
		return 0, fmt.Errorf("transport: start vector %d params, model has %d", len(req.Start), s.numParams)
	}
	switch req.Layer {
	case fl.FullParams:
		return s.numParams, nil
	case fl.FinalLayer:
		return s.finalDim, nil
	default:
		return 0, fmt.Errorf("transport: layer selector %d is neither full parameters nor the final layer", req.Layer)
	}
}

// visit is a checked work order as a lane runs it: start narrowed
// through down, the report encoded under up — or, for full-parameter
// reports when ef is set, sparsified through the node's residuals.
func (s *Service) visit(req *fl.RemoteRequest, down, up wire.Codec, ef *fl.ErrorFeedback) fl.Visit {
	return fl.Visit{
		Client: req.Client, Round: req.Round, Layer: req.Layer, Cfg: req.Cfg,
		Start: req.Start, Data: s.env.Clients[req.Client].Train,
		Down: down, Up: up, EF: ef,
	}
}

// execute runs one work order in-process with a wire's codecs applied
// and writes the selected vector into out, whose length must match the
// selector's dimension: out comes back as the coordinator behind a
// socket pair would decode it — start narrowed through down, the report
// through up (a sparse up runs full-parameter reports through the node's
// residuals). Safe for concurrent use, including concurrent orders for
// one client.
func (s *Service) execute(req *fl.RemoteRequest, out []float64, down, up wire.Codec) error {
	n, err := s.check(req)
	if err != nil {
		return err
	}
	if len(out) != n {
		return fmt.Errorf("transport: result buffer %d values, selector needs %d", len(out), n)
	}
	var ef *fl.ErrorFeedback
	if up.Sparse() {
		ef = s.ef
	}
	sl := <-s.slots
	defer func() { s.slots <- sl }()
	v := s.visit(req, down, up, ef)
	sl.Visit(&v, out)
	return nil
}

// ServeConn runs the node side of the protocol on an established
// connection until the coordinator says Bye, the peer disconnects, or
// the stream turns invalid. Callers that need to distinguish an orderly
// Bye from a disconnect (the rejoin path) use Serve instead.
func (s *Service) ServeConn(conn net.Conn) error {
	_, err := s.Serve(conn)
	return err
}

// Serve is ServeConn reporting how the session ended: bye is true only
// when the coordinator sent an explicit Bye — the run is over and there
// is nothing to rejoin. A clean disconnect without a Bye (bye false, err
// nil) is what a crashed or restarting coordinator looks like from here;
// ServeLoop re-dials on it. Requests are dispatched concurrently (slot
// checkout bounds the parallelism; each request's training runs its
// tensor kernels on its own handler goroutine); responses are written as
// each finishes. In-flight work drains before return.
func (s *Service) Serve(conn net.Conn) (bye bool, err error) {
	defer conn.Close()
	var wmu sync.Mutex
	var wg sync.WaitGroup
	defer wg.Wait()
	// Buffered like the coordinator's read loop: back-to-back requests
	// coalesce instead of costing two read syscalls per frame.
	fr := &frameReader{r: bufio.NewReaderSize(conn, 1<<16)}
	for {
		t, body, _, err := fr.next()
		if err != nil {
			if err == io.EOF {
				return false, nil // peer hung up between frames, no Bye
			}
			return false, err
		}
		switch t {
		case MsgBye:
			return true, nil
		case MsgTrain:
			m, err := parseTrainMsg(body)
			if err != nil {
				return false, err // framing is broken; drop the connection
			}
			sl := <-s.slots
			// Decode before the next read — m.Frame aliases the reader's
			// buffer.
			var decErr error
			sl.vec, decErr = wire.DecodeInto(sl.vec, m.Frame)
			codec, cerr := wire.FrameCodec(m.Frame)
			if cerr != nil {
				codec = wire.Float64 // error reply; DecodeInto already failed
			}
			req := fl.RemoteRequest{
				Client: m.Client, Round: m.Round, Cluster: m.Cluster,
				Layer: m.Layer, Cfg: m.Cfg, Start: sl.vec,
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { s.slots <- sl }()
				buf := beginFrame(sl.enc[:0], MsgUpdate)
				n, runErr := 0, decErr
				if runErr == nil {
					n, runErr = s.check(&req)
				}
				if runErr == nil {
					// The start already came off a real wire, so it is
					// loaded as decoded (re-narrowing is not idempotent
					// under Quant8). A dense reply mirrors the request's
					// codec; a sparsifying node's full-parameter reply
					// runs through its own residuals, where they live,
					// before the frame leaves the machine.
					v := s.visit(&req, wire.Float64, codec, s.ef)
					buf = sl.VisitFrame(appendUpdateOK(buf, m.ReqID), &v, sl.out[:n])
				} else {
					buf = appendUpdateErr(buf, m.ReqID, runErr.Error())
				}
				buf = endFrame(buf, 0)
				sl.enc = buf
				wmu.Lock()
				conn.SetWriteDeadline(time.Now().Add(writeTimeout))
				_, _ = conn.Write(buf) // a dead peer surfaces on the read side
				wmu.Unlock()
			}()
		default:
			// Unknown types are skipped for forward compatibility.
		}
	}
}
