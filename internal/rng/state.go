package rng

import "math"

// State is a serializable snapshot of a generator's position: the four
// xoshiro256** state words plus the Box-Muller spare (flag word, then the
// spare deviate's bits). It captures everything the next draw depends
// on, so checkpoints record the run's root position with it and resume
// refuses a seed whose root position differs.
type State [6]uint64

// State returns r's current position.
func (r *Rng) State() State {
	var st State
	copy(st[:4], r.s[:])
	if r.hasSpare {
		st[4] = 1
	}
	st[5] = math.Float64bits(r.spare)
	return st
}
