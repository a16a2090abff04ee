package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCoversAllIndices: every item runs exactly once, for widths
// below, at, and above the item count.
func TestRunCoversAllIndices(t *testing.T) {
	p := New()
	defer p.Shutdown()
	for _, width := range []int{1, 2, 3, 7, 64, 300} {
		const n = 257
		counts := make([]int32, n)
		p.Run(n, width, func(_, i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("width %d: index %d run %d times", width, i, c)
			}
		}
	}
}

// TestRunWorkerIDsStableAndDisjoint: ids lie in [0, min(width, n)) and a
// given id never runs two items concurrently, so per-worker scratch
// needs no locks.
func TestRunWorkerIDsStableAndDisjoint(t *testing.T) {
	p := New()
	defer p.Shutdown()
	const n, width = 500, 8
	busy := make([]int32, width)
	var visited int64
	p.Run(n, width, func(w, i int) {
		if w < 0 || w >= width {
			t.Errorf("worker id %d out of [0, %d)", w, width)
		}
		if !atomic.CompareAndSwapInt32(&busy[w], 0, 1) {
			t.Errorf("worker slot %d used concurrently", w)
		}
		atomic.AddInt64(&visited, 1)
		atomic.StoreInt32(&busy[w], 0)
	})
	if visited != n {
		t.Fatalf("visited %d items, want %d", visited, n)
	}
}

// TestNestedRunFallsBackSerial: a Run submitted from inside a running
// region must execute inline on the submitting worker (worker id 0, no
// new goroutines), not deadlock or oversubscribe.
func TestNestedRunFallsBackSerial(t *testing.T) {
	p := New()
	defer p.Shutdown()
	const outer, inner = 8, 50
	var innerRuns int64
	var nestedParallel int32
	p.Run(outer, 4, func(w, i int) {
		var localSeq int64 // serial inner runs touch this without atomics
		p.Run(inner, 4, func(iw, j int) {
			if iw != 0 {
				atomic.StoreInt32(&nestedParallel, 1)
			}
			localSeq++
			atomic.AddInt64(&innerRuns, 1)
		})
		if localSeq != inner {
			t.Errorf("nested run on worker %d executed %d items, want %d", w, localSeq, inner)
		}
	})
	if innerRuns != outer*inner {
		t.Fatalf("inner items run %d times, want %d", innerRuns, outer*inner)
	}
	if nestedParallel != 0 {
		t.Fatal("nested Run handed out a non-zero worker id (went parallel)")
	}
}

// TestConcurrentSubmit: many goroutines submitting regions at once — one
// claims the pool, the rest fall back to inline serial; every submission
// completes all its items.
func TestConcurrentSubmit(t *testing.T) {
	p := New()
	defer p.Shutdown()
	const submitters, n = 6, 200
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				counts := make([]int32, n)
				p.Run(n, 4, func(_, i int) { atomic.AddInt32(&counts[i], 1) })
				for i, c := range counts {
					if c != 1 {
						t.Errorf("submitter %d: index %d run %d times", s, i, c)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
}

// TestShutdownIdle: shutting down an idle pool joins its workers and
// leaves it in working serial-fallback mode.
func TestShutdownIdle(t *testing.T) {
	p := New()
	p.Run(64, 4, func(_, _ int) {}) // spawn some workers
	p.mu.Lock()
	spawned := len(p.workers)
	p.mu.Unlock()
	if spawned == 0 {
		t.Fatal("no workers spawned")
	}
	p.Shutdown()
	p.Shutdown() // idempotent
	counts := make([]int32, 100)
	p.Run(len(counts), 4, func(w, i int) {
		if w != 0 {
			t.Errorf("shut-down pool handed out worker id %d", w)
		}
		counts[i]++
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("after shutdown: index %d run %d times", i, c)
		}
	}
}

// TestShutdownBusy: Shutdown during an active region waits for the
// region to drain before joining workers; no item is lost.
func TestShutdownBusy(t *testing.T) {
	p := New()
	const n = 64
	var ran int64
	started := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		p.Run(n, 4, func(_, i int) {
			if i == 0 {
				close(started)
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&ran, 1)
		})
		close(finished)
	}()
	<-started
	p.Shutdown() // must block until the region completes
	if atomic.LoadInt64(&ran) != n {
		t.Fatalf("shutdown returned with %d/%d items run", ran, n)
	}
	<-finished
}

// TestPanicInClaimantTaskReleasesPool: a panic in fn on the submitting
// goroutine, recovered by the caller, must drain the region and release
// the claim — the pool stays usable.
func TestPanicInClaimantTaskReleasesPool(t *testing.T) {
	p := New()
	defer p.Shutdown()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic to propagate")
			}
		}()
		p.Run(64, 2, func(w, i int) {
			if w == 0 {
				panic("claimant task failure")
			}
		})
	}()
	if !p.claim() {
		t.Fatal("claim still held after recovered panic")
	}
	p.mu.Unlock()
	counts := make([]int32, 100)
	p.Run(len(counts), 4, func(_, i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("after recovered panic: index %d run %d times", i, c)
		}
	}
}
