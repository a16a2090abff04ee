package fl

import "fmt"

// Sections walks a checkpoint's named sections in one direction. Built by
// Checkpoint.Saver, every call copies the listed buffer into the
// checkpoint; built by Checkpoint.Loader, the same call copies the
// length-checked section back into that buffer. State is therefore
// listed once — in one func(*Sections) run both ways — and a save and a
// load cannot disagree on names, lengths or order.
//
// The first failure (missing section, length mismatch, value out of
// range) sticks in Err and makes every later call a no-op, so a walk
// carries no per-call error handling; the caller checks Err at the end.
type Sections struct {
	ck   *Checkpoint
	load bool
	// Err is the first failure of a loading walk (always nil when saving).
	Err error
}

// Saver returns a walk that writes into c.
func (c *Checkpoint) Saver() *Sections { return &Sections{ck: c} }

// Loader returns a walk that reads from c.
func (c *Checkpoint) Loader() *Sections { return &Sections{ck: c, load: true} }

// vec moves one float64 section; want < 0 accepts any stored length (the
// loaded values replace *p's contents, reusing its backing array).
func (s *Sections) vec(name string, p *[]float64, want int) {
	switch {
	case s.Err != nil:
	case s.load:
		var v []float64
		if v, s.Err = s.ck.Vec(name, want); s.Err == nil {
			*p = append((*p)[:0], v...)
		}
	default:
		s.ck.SetVec(name, *p)
	}
}

// word is the element type of an integer section's live buffer.
type word interface{ int | int64 }

// ints is vec for integer sections.
func ints[T word](s *Sections, name string, p *[]T, want int) {
	switch {
	case s.Err != nil:
	case s.load:
		var w []int64
		if w, s.Err = s.ck.Ints(name, want); s.Err == nil {
			*p = (*p)[:0]
			for _, x := range w {
				*p = append(*p, T(x))
			}
		}
	default:
		w := make([]int64, len(*p))
		for i, x := range *p {
			w[i] = int64(x)
		}
		s.ck.putInts(name, w)
	}
}

// scalars packs individual counters into one integer section, in order.
func scalars[T word](s *Sections, name string, ptrs ...*T) {
	switch {
	case s.Err != nil:
	case s.load:
		var w []int64
		if w, s.Err = s.ck.Ints(name, len(ptrs)); s.Err == nil {
			for i, p := range ptrs {
				*p = T(w[i])
			}
		}
	default:
		w := make([]int64, len(ptrs))
		for i, p := range ptrs {
			w[i] = int64(*p)
		}
		s.ck.putInts(name, w)
	}
}

// Fail records err as the walk's failure unless an earlier one stands —
// for callers whose state has a constraint the typed calls cannot carry.
func (s *Sections) Fail(err error) {
	if s.Err == nil {
		s.Err = err
	}
}

// inRange fails a loading walk on the first value outside [lo, hi).
func (s *Sections) inRange(name string, buf []int, lo, hi int) {
	if !s.load || s.Err != nil {
		return
	}
	for i, x := range buf {
		if x < lo || x >= hi {
			s.Err = fmt.Errorf("fl: checkpoint section %q entry %d is %d, outside [%d,%d)", name, i, x, lo, hi)
			return
		}
	}
}

// Vec lists a fixed-length float64 buffer.
func (s *Sections) Vec(name string, buf []float64) { s.vec(name, &buf, len(buf)) }

// Vecs lists equal-purpose rows (cluster models, per-client residuals)
// stored as one row-concatenated section.
func (s *Sections) Vecs(name string, rows [][]float64) {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	switch {
	case s.Err != nil:
	case s.load:
		var flat []float64
		flat, s.Err = s.ck.Vec(name, n)
		for _, r := range rows {
			flat = flat[copy(r, flat):]
		}
	default:
		flat := make([]float64, 0, n)
		for _, r := range rows {
			flat = append(flat, r...)
		}
		s.ck.putVec(name, flat)
	}
}

// Floats packs individual float64 values into one section, in order.
func (s *Sections) Floats(name string, ptrs ...*float64) {
	switch {
	case s.Err != nil:
	case s.load:
		var v []float64
		if v, s.Err = s.ck.Vec(name, len(ptrs)); s.Err == nil {
			for i, p := range ptrs {
				*p = v[i]
			}
		}
	default:
		v := make([]float64, len(ptrs))
		for i, p := range ptrs {
			v[i] = *p
		}
		s.ck.putVec(name, v)
	}
}

// IntsIn lists a fixed-length buffer of index-valued integers — cluster
// ids, client ids, round numbers — that must lie in [lo, hi) on load: a
// checkpoint file deserves no more trust than a frame off a socket, and
// an unchecked index surfaces rounds later as a panic far from its cause.
func (s *Sections) IntsIn(name string, buf []int, lo, hi int) {
	ints(s, name, &buf, len(buf))
	s.inRange(name, buf, lo, hi)
}

// VarIntsIn is IntsIn for a buffer whose length is itself state: a load
// resizes *p to whatever the checkpoint stored.
func (s *Sections) VarIntsIn(name string, p *[]int, lo, hi int) {
	ints(s, name, p, -1)
	s.inRange(name, *p, lo, hi)
}

// Bools lists a flag per slot, stored as 0/1 words.
func (s *Sections) Bools(name string, buf []bool) {
	w := make([]int, len(buf))
	for i, b := range buf {
		if b {
			w[i] = 1
		}
	}
	s.IntsIn(name, w, 0, 2)
	for i := range buf {
		buf[i] = w[i] != 0
	}
}

// Scalars packs individual counters into one integer section, in order.
func (s *Sections) Scalars(name string, ptrs ...*int) { scalars(s, name, ptrs...) }
