// Package nn implements the neural-network substrate of the reproduction:
// a layer interface with hand-written backward passes, a Sequential
// container with parameter flattening (the representation federated
// aggregation works on), and the model zoo the paper evaluates (LeNet-5 for
// Table I, a VGG-16-shaped probe network for Fig. 1). The layer kinds are
// the four the zoo builds: Dense, Conv2D, ReLU and MaxPool2.
//
// All activations flow as rank-2 (batch, features) tensors; convolutional
// layers interpret the feature axis as flattened CHW volumes via an
// explicit geometry, so no rank-4 tensors are needed.
//
// Every layer, the container and the loss head are written once over the
// element type T (tensor.Float). Models are built and initialized in
// float64 — the master-weight type — and Mirror32 instantiates the same
// code at float32 for the SIMD compute path (DESIGN.md §10). A generic
// type is named XOf where a float64 alias X is kept for the code (and
// bench/) that only ever handles float64 models.
package nn

import (
	"fmt"

	"fedclust/internal/tensor"
)

// Layer is one differentiable stage of a network.
//
// Workspace contract: Forward and Backward return tensors backed by
// workspaces the layer owns and reuses, so a steady-state training step
// performs no heap allocations. A returned tensor is valid only until
// the layer's next Forward or Backward call; callers that need a result
// to survive (tests, feature extraction) must Clone it. Workspaces are
// sized lazily to the incoming batch and resized on shape changes (the
// partial final batch, train/eval alternation) while retaining storage.
// Callers must not write into a returned tensor: ReLU.Backward reads
// the one its own Forward returned.
type Layer[T tensor.Float] interface {
	// Name identifies the layer kind and shape, e.g. "conv5x5(3→6)".
	Name() string
	// Forward computes the layer output for a (batch, inDim) input.
	// train marks a training pass; every layer kind here computes the
	// same function either way.
	Forward(x *tensor.Of[T], train bool) *tensor.Of[T]
	// Backward consumes dL/d(output) and returns dL/d(input),
	// accumulating parameter gradients internally. It reads what the
	// matching Forward cached — Dense its input tensor, ReLU its own
	// output, MaxPool2 its argmax, Conv2D a zero-padded copy of its input
	// that it unrolls again strip by strip — so it must follow that
	// Forward with no other Forward of the layer in between. The one
	// layer a Sequential marked as its first with parameters computes no
	// dL/d(input) — nothing reads it — and returns nil.
	Backward(gradOut *tensor.Of[T]) *tensor.Of[T]
	// Params returns the layer's parameter tensors (possibly empty).
	// Callers may mutate the contents (that is how aggregation loads
	// weights) but not replace the tensors.
	Params() []*tensor.Of[T]
	// Grads returns gradient tensors aligned with Params.
	Grads() []*tensor.Of[T]
	// OutDim returns the width of the layer's output features.
	OutDim() int
}

// SequentialOf chains layers and exposes whole-network parameter access.
// The layer list is fixed at construction, which allocates one buffer for
// every parameter and one for every gradient, in layer order; each
// layer's tensors are capacity-limited windows into them. So a model is
// one flat vector, and the accessors only read: a model that several
// evaluation workers flatten at once is not written to. Construct with
// NewSequential or Mirror32, not as a literal.
type SequentialOf[T tensor.Float] struct {
	Layers []Layer[T]

	params, grads []*tensor.Of[T]
	data, grad    []T   // the two buffers params and grads are windows of
	spans         []int // layer i's parameters are data[spans[i]:spans[i+1]]
	first         int   // Backward stops here: no layer below it has parameters
}

// anyBatch is checkBatchInput's batch for Forward: every row count goes.
const anyBatch = -1

// inputGradSkipper is the hook of the parameter layers (Dense, Conv2D):
// skipInputGrad tells the layer that its input gradient is unread, so
// its Backward accumulates the parameter gradients and returns nil.
type inputGradSkipper interface{ skipInputGrad() }

// Sequential is the float64 network: what factories build, aggregation
// flattens and every federated method holds.
type Sequential = SequentialOf[float64]

// NewSequential builds a float64 network from the given layers, which
// must be fresh: their parameter tensors get their storage here, zeroed
// (HeInit draws the weights).
func NewSequential(layers ...Layer[float64]) *Sequential { return newSequential(layers) }

func newSequential[T tensor.Float](layers []Layer[T]) *SequentialOf[T] {
	s := &SequentialOf[T]{Layers: layers, spans: make([]int, len(layers)+1)}
	for i, l := range layers {
		ps := l.Params()
		s.spans[i+1] = s.spans[i]
		for _, p := range ps {
			s.spans[i+1] += numel(p.Shape)
		}
		s.params = append(s.params, ps...)
		s.grads = append(s.grads, l.Grads()...)
	}
	n := s.spans[len(layers)]
	s.data, s.grad = make([]T, n), make([]T, n)
	window(s.params, s.data)
	window(s.grads, s.grad)
	// The gradient with respect to the network's input feeds no parameter
	// update: the first layer that has parameters is where backpropagation
	// ends, and that layer need not produce an input gradient at all.
	for i, l := range layers {
		if len(l.Params()) == 0 {
			continue
		}
		if h, ok := l.(inputGradSkipper); ok {
			h.skipInputGrad()
			s.first = i
		}
		break
	}
	return s
}

// window points each tensor, in order, at the next numel(Shape) elements
// of buf, capacity-limited so no append through a window can reach its
// neighbour's.
func window[T tensor.Float](ts []*tensor.Of[T], buf []T) {
	off := 0
	for _, t := range ts {
		if t.Data != nil {
			panic("nn: a layer's parameters already belong to a network")
		}
		n := numel(t.Shape)
		t.Data = buf[off : off+n : off+n]
		off += n
	}
}

// numel is the element count of a shape.
func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// Forward runs all layers in order.
func (s *SequentialOf[T]) Forward(x *tensor.Of[T], train bool) *tensor.Of[T] {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the loss gradient through the layers in reverse,
// down to the first one that has parameters, accumulating every
// parameter gradient. The gradient with respect to the input is not
// computed.
func (s *SequentialOf[T]) Backward(grad *tensor.Of[T]) {
	for i := len(s.Layers) - 1; i >= s.first; i-- {
		grad = s.Layers[i].Backward(grad)
	}
}

// Params returns every parameter tensor in layer order. The returned
// slice is shared: callers may mutate tensor contents (that is how
// aggregation loads weights) but must not modify the slice.
func (s *SequentialOf[T]) Params() []*tensor.Of[T] { return s.params }

// Grads returns every gradient tensor in layer order, aligned with
// Params (shared like Params).
func (s *SequentialOf[T]) Grads() []*tensor.Of[T] { return s.grads }

// ParamData returns the buffer every parameter tensor is a window of:
// the network's whole parameter vector, in layer order. Callers may
// mutate its contents, not its length.
func (s *SequentialOf[T]) ParamData() []T { return s.data }

// GradData returns the gradient buffer, aligned with ParamData.
func (s *SequentialOf[T]) GradData() []T { return s.grad }

// NumParams returns the total number of scalar parameters.
func (s *SequentialOf[T]) NumParams() int { return len(s.data) }

// String lists the layer names.
func (s *SequentialOf[T]) String() string {
	out := "Sequential["
	for i, l := range s.Layers {
		if i > 0 {
			out += " → "
		}
		out += l.Name()
	}
	return out + "]"
}

// checkBatchInput panics unless x is rank-2 with the expected feature
// width; layers use it to give actionable shape errors. It takes the
// layer rather than its name so Name()'s formatting runs only on failure
// (the happy path is per-batch-step and must not allocate). stage is ""
// for Forward, where batch is anyBatch; " backward" for Backward, whose
// gradOut must also have the rows of the Forward the layer cached — the
// layers index their caches by it.
func checkBatchInput[T tensor.Float](l Layer[T], stage string, x *tensor.Of[T], batch, inDim int) {
	if len(x.Shape) != 2 {
		panic(fmt.Sprintf("nn: %s%s expects (batch, features) input, got %v", l.Name(), stage, x.Shape))
	}
	if x.Shape[1] != inDim {
		panic(fmt.Sprintf("nn: %s%s expects %d input features, got %d", l.Name(), stage, inDim, x.Shape[1]))
	}
	if batch >= 0 && x.Shape[0] != batch {
		panic(fmt.Sprintf("nn: %s%s expects the forward pass's batch of %d, got %d", l.Name(), stage, batch, x.Shape[0]))
	}
}
