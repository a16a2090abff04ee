package rng

import (
	"fmt"
	"math"
	"testing"
)

// restore sets r to exactly the captured position, rejecting states no
// generator can be in (all-zero core, a non-boolean spare flag, a
// non-finite spare deviate).
func restore(r *Rng, st State) error {
	if st[0]|st[1]|st[2]|st[3] == 0 {
		return fmt.Errorf("rng: all-zero generator state")
	}
	if st[4] > 1 {
		return fmt.Errorf("rng: spare flag word %d is not boolean", st[4])
	}
	spare := math.Float64frombits(st[5])
	if st[4] == 1 && (math.IsNaN(spare) || math.IsInf(spare, 0)) {
		return fmt.Errorf("rng: non-finite cached spare deviate")
	}
	copy(r.s[:], st[:4])
	r.hasSpare = st[4] == 1
	r.spare = spare
	return nil
}

// TestStateRoundTrip: capturing mid-stream and restoring into a fresh
// generator must reproduce the continuation exactly, including the cached
// Box-Muller spare.
func TestStateRoundTrip(t *testing.T) {
	r := New(42)
	for i := 0; i < 100; i++ {
		r.Uint64()
	}
	r.NormFloat64() // leaves a cached spare behind
	st := r.State()

	var q Rng
	if err := restore(&q, st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for i := 0; i < 50; i++ {
		if a, b := r.NormFloat64(), q.NormFloat64(); a != b {
			t.Fatalf("draw %d diverged: %v vs %v", i, a, b)
		}
		if a, b := r.Uint64(), q.Uint64(); a != b {
			t.Fatalf("draw %d diverged: %d vs %d", i, a, b)
		}
	}
}

// TestStateSameSeedStable: the root state is a pure function of the seed
// (the checkpoint resume guard relies on this).
func TestStateSameSeedStable(t *testing.T) {
	if New(7).State() != New(7).State() {
		t.Fatal("same seed produced different states")
	}
	if New(7).State() == New(8).State() {
		t.Fatal("different seeds produced identical states")
	}
}

// TestRestoreRejectsInvalid: hostile states must be rejected, not trusted.
func TestRestoreRejectsInvalid(t *testing.T) {
	var r Rng
	if err := restore(&r, State{}); err == nil {
		t.Error("all-zero state accepted")
	}
	if err := restore(&r, State{1, 2, 3, 4, 7, 0}); err == nil {
		t.Error("non-boolean spare flag accepted")
	}
	nan := New(1).State()
	nan[4] = 1
	nan[5] = 0x7ff8000000000001 // NaN bits
	if err := restore(&r, nan); err == nil {
		t.Error("NaN spare accepted")
	}
}
