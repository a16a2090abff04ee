// Package sched is the persistent work-sharing executor every parallel
// phase of the simulator runs on: the round engine's client phase, the
// evaluation protocol, and the tensor package's large-matmul row blocks
// all submit to one shared pool of long-lived worker goroutines instead
// of spawning fresh goroutines per call.
//
// Design (see DESIGN.md §6):
//
//   - Long-lived workers. A Pool grows worker goroutines on demand up to
//     the widest region ever requested and parks them on per-worker wake
//     channels between regions; a steady-state region costs a few channel
//     sends and atomic adds, and allocates nothing.
//   - Atomic index handoff. Work items are handed out by incrementing a
//     shared atomic counter — no per-item channel sends, no filled index
//     channel per call.
//   - Stable worker ids. Every participant of a region draws one id from
//     an atomic sequence before pulling items, so ids are goroutine-stable
//     for the region and lie in [0, participants) ⊆ [0, min(width, n)).
//     Per-worker scratch indexed by the id is never touched concurrently.
//   - Reusable barrier. Region completion is detected by counting worker
//     exits (not item completions): the claimant only returns — and the
//     pool only becomes reclaimable — after every woken worker has left
//     its item loop, so no straggler can touch the next region's state.
//   - Single region at a time. A region claims the pool with a try-lock.
//     A claim failure means the caller is either nested inside a running
//     region (a tensor kernel called from a client task) or racing
//     another top-level region; both fall back to running inline and
//     serially, which eliminates nested oversubscription by construction.
//     Serial fallback never changes results: callers are required to be
//     partitioning-insensitive (every item produces its outputs
//     independently, with a fixed per-item operation order).
//
// Shutdown is deterministic: Shutdown blocks until any active region
// drains, then joins every worker goroutine. A shut-down pool keeps
// working in serial-fallback mode.
package sched

import (
	"sync"
	"sync/atomic"
)

// activeRegions counts currently running regions across every Pool in
// the process. Busy lets code that cannot see the claiming pool (the
// tensor kernels, when an Env is pinned to a private executor) detect
// that it is being called underneath a parallel phase and stay serial.
var activeRegions atomic.Int32

// Busy reports whether any executor region is currently running in the
// process. It is a conservative oversubscription guard, not a lock:
// callers use it to choose a serial path, never for correctness.
func Busy() bool { return activeRegions.Load() > 0 }

// Pool is a persistent work-sharing executor. The zero value is not
// usable; construct with New (or use the process-wide Default).
type Pool struct {
	// mu is the region claim: held by the submitting goroutine for the
	// whole region. TryLock failure = nested or concurrent submit.
	mu   sync.Mutex
	dead bool // set under mu by Shutdown

	workers []chan struct{} // per-worker wake channels; grown under mu
	wg      sync.WaitGroup
	quit    chan struct{}

	// Region state. Written by the claimant while holding mu, before the
	// wake sends (which order the writes for the woken workers).
	fn     func(worker, i int)
	n      int
	next   atomic.Int64 // index handoff counter
	widSeq atomic.Int64 // worker-id sequence (claimant is always 0)
	exits  atomic.Int64 // woken workers still inside their item loop
	done   chan struct{}

	// Lifetime counters (Stats). Updated once per region — never per
	// item — so the telemetry cost is two atomic adds per parallel phase.
	// nworkers mirrors len(workers) atomically so Stats never contends
	// with the region claim (Size does, and blocks for a whole region).
	regions  atomic.Uint64
	serial   atomic.Uint64
	items    atomic.Uint64
	nworkers atomic.Int64
}

// Stats is a snapshot of a pool's lifetime execution counters — the
// control plane exposes the default pool's as pull-based metrics.
type Stats struct {
	// Regions counts parallel regions run to completion; Serial counts
	// submissions that ran inline on the caller (width ≤ 1, nested or
	// concurrent claim, shut-down pool).
	Regions uint64
	Serial  uint64
	// Items counts work items executed across both paths.
	Items uint64
	// Workers is the number of persistent worker goroutines spawned.
	Workers int
}

// Stats returns the pool's lifetime counters. Lock-free: safe to call
// from a scrape while a region is running.
func (p *Pool) Stats() Stats {
	return Stats{
		Regions: p.regions.Load(),
		Serial:  p.serial.Load(),
		Items:   p.items.Load(),
		Workers: int(p.nworkers.Load()),
	}
}

// New returns an empty pool. Workers are spawned lazily by the first
// regions that need them.
func New() *Pool {
	return &Pool{quit: make(chan struct{}), done: make(chan struct{}, 1)}
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide executor shared by the round engine,
// the evaluation protocol, and the tensor kernels. It is never shut
// down; its workers park between regions.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New() })
	return defaultPool
}

// Run executes fn(worker, i) for every i in [0, n), spreading items over
// up to `width` concurrent participants (the calling goroutine plus
// width-1 pool workers). fn must be safe to call concurrently for
// distinct i. Worker ids are goroutine-stable for the call and lie in
// [0, min(width, n)). When the pool cannot be claimed — the caller is
// already inside a region, another region is running, or the pool is
// shut down — or when width or n make parallelism pointless, every item
// runs inline on the caller with worker id 0. Run returns only after
// every item has completed.
func (p *Pool) Run(n, width int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if width > n {
		width = n
	}
	if width <= 1 || !p.TryAcquire() {
		p.serial.Add(1)
		p.items.Add(uint64(n))
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// Deferred so a panicking fn (recovered upstream) cannot leak the
	// claim and poison every future region in the process.
	defer p.Release()
	p.RunAcquired(n, width, fn)
}

// TryAcquire claims the pool for one region. It fails — returning false
// — when the pool is already claimed (a nested or concurrent region) or
// shut down; the caller must then run its work serially inline. On
// success the caller must call RunAcquired zero or more times and then
// Release, all on the same goroutine.
//
// The split exists so callers with closure-free task state (the tensor
// dispatch) can write their operand slots after the claim and clear
// them before the release, keeping the whole submission allocation-free.
func (p *Pool) TryAcquire() bool {
	if !p.mu.TryLock() {
		return false
	}
	if p.dead {
		p.mu.Unlock()
		return false
	}
	activeRegions.Add(1)
	return true
}

// Release ends a successfully TryAcquire'd claim.
func (p *Pool) Release() {
	activeRegions.Add(-1)
	p.mu.Unlock()
}

// RunAcquired is Run on a pool the caller has already claimed with
// TryAcquire. It never falls back to another claim and must only be
// called between TryAcquire and Release.
func (p *Pool) RunAcquired(n, width int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if width > n {
		width = n
	}
	if width <= 1 {
		p.serial.Add(1)
		p.items.Add(uint64(n))
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p.regions.Add(1)
	p.items.Add(uint64(n))

	wake := width - 1
	for len(p.workers) < wake {
		ch := make(chan struct{}, 1)
		p.workers = append(p.workers, ch)
		p.nworkers.Store(int64(len(p.workers)))
		p.wg.Add(1)
		go p.work(ch)
	}

	p.fn, p.n = fn, n
	p.next.Store(0)
	p.widSeq.Store(1) // the claimant takes id 0
	p.exits.Store(int64(wake))
	for s := 0; s < wake; s++ {
		p.workers[s] <- struct{}{}
	}
	// Completion barrier: wait for every woken worker to leave its item
	// loop, so region state can be safely rewritten for the next region.
	// Deferred so that even if the claimant's own fn panics, the region
	// drains (workers consume the remaining indices and hit the exit
	// barrier) before the panic propagates — the pool stays consistent
	// for recover-and-continue callers.
	defer func() {
		<-p.done
		p.fn = nil
	}()
	for {
		i := int(p.next.Add(1)) - 1
		if i >= n {
			break
		}
		fn(0, i)
	}
}

// work is one persistent worker goroutine: park on the wake channel,
// join the announced region, signal the barrier, repeat.
func (p *Pool) work(wake chan struct{}) {
	defer p.wg.Done()
	for {
		select {
		case <-wake:
			wid := int(p.widSeq.Add(1)) - 1
			fn, n := p.fn, p.n
			for {
				i := int(p.next.Add(1)) - 1
				if i >= n {
					break
				}
				fn(wid, i)
			}
			if p.exits.Add(-1) == 0 {
				p.done <- struct{}{}
			}
		case <-p.quit:
			return
		}
	}
}

// Shutdown deterministically stops the pool: it waits for any active
// region to finish, then joins every worker goroutine. The pool remains
// usable afterwards — Run degrades to the inline serial path. Shutting
// down an already-shut-down pool is a no-op.
func (p *Pool) Shutdown() {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	close(p.quit)
	p.mu.Unlock()
	p.wg.Wait()
}
