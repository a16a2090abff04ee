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

// mirror returns the replica for model's architecture. Its weights are
// whatever its last use left, so every caller loads its own: a visit
// rounds its start in, Evaluate the model's parameters.
func (c *shadowCache) mirror(model *nn.Sequential) *nn.SequentialOf[float32] {
	if c.net == nil || !nn.IsMirror32(c.net, model) {
		c.net = nn.Mirror32(model)
	}
	return c.net
}
