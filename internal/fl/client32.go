package fl

import "fedclust/internal/nn"

// shadowCache is the float32 side of the mixed-precision contract
// (DESIGN.md §10) for one worker: a float32 replica of whichever float64
// model the worker is handed. Pooled execution hands a worker many model
// instances of one architecture, so the replica is keyed on structure,
// not on the model pointer: it is rebuilt only when the architecture
// changes. The zero value is ready to use.
type shadowCache struct {
	net *nn.SequentialOf[float32]
}

// load returns the replica holding model's parameters, each rounded to
// float32 once — loaded fresh on every call, because the same pooled
// model may carry different weights on consecutive visits.
func (c *shadowCache) load(model *nn.Sequential) *nn.SequentialOf[float32] {
	if c.net == nil || !nn.IsMirror32(c.net, model) {
		c.net = nn.Mirror32(model)
	}
	nn.AssignParams32(c.net, model)
	return c.net
}

// Params32 returns the trained float32 parameter vector of the last
// LocalUpdate when it ran on the float32 path, flattened into a reused
// buffer — the transport's zero-convert source for Float32 wire frames.
// Because widening back to float64 is exact, the returned bits equal
// what encoding the float64 model into a Float32 frame would produce;
// the fast path changes no observable value, only skips the converts.
// The slice is overwritten by the next call; ok=false means the last
// update ran float64 and callers must encode from the model.
func (ts *TrainScratch) Params32() (vec []float32, ok bool) {
	if !ts.ranF32 {
		return nil, false
	}
	sh := ts.shadow.net
	n := sh.NumParams()
	if cap(ts.flat32) < n {
		ts.flat32 = make([]float32, n)
	}
	ts.flat32 = ts.flat32[:n]
	return nn.FlattenParamsInto(sh, ts.flat32), true
}
