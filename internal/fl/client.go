// Package fl is the federated-learning substrate: clients with local
// datasets, local SGD updates, sample-weighted aggregation, communication
// accounting, a parallel client executor, and the personalized evaluation
// protocol shared by every method in internal/methods and internal/core.
package fl

import (
	"fmt"
	"math"

	"fedclust/internal/data"
	"fedclust/internal/nn"
	"fedclust/internal/opt"
	"fedclust/internal/rng"
	"fedclust/internal/tensor"
)

// Client is one simulated device: an id plus local train and test splits.
// The test split follows the client's own label distribution (personalized
// evaluation; see partition.MatchingTest).
type Client struct {
	ID    int
	Train *data.Dataset
	Test  *data.Dataset
}

// LocalConfig controls one client's local training pass.
type LocalConfig struct {
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64
	// ProxMu, when positive, adds the FedProx proximal term pulling
	// weights toward the round's starting parameters.
	ProxMu float64
}

// Check rejects a degenerate configuration. It is the one place the
// config rules live: Env.Check applies it to the run's schedule, and the
// transport applies it to every work order that arrives off the wire.
func (c LocalConfig) Check() error {
	if c.Epochs < 1 || c.BatchSize < 1 {
		return fmt.Errorf("fl: invalid local config epochs=%d batch=%d", c.Epochs, c.BatchSize)
	}
	if !(c.LR > 0) || math.IsInf(c.LR, 0) {
		return fmt.Errorf("fl: invalid learning rate %v", c.LR)
	}
	if !(c.Momentum >= 0 && c.Momentum < 1) {
		return fmt.Errorf("fl: momentum %v out of [0,1)", c.Momentum)
	}
	if !(c.WeightDecay >= 0) || math.IsInf(c.WeightDecay, 0) {
		return fmt.Errorf("fl: invalid weight decay %v", c.WeightDecay)
	}
	if !(c.ProxMu >= 0) || math.IsInf(c.ProxMu, 0) {
		return fmt.Errorf("fl: invalid prox mu %v", c.ProxMu)
	}
	return nil
}

// TrainScratch carries the allocation-heavy state of local training and
// evaluation — the optimizer (with its velocity buffer), the loss-head
// workspaces, the FedProx reference buffer and the batcher, per element
// type, plus the float32 network of the Float32 path — so one worker
// can run many passes with zero steady-state heap allocations. The
// batcher is the scratch's own and rebinds to each visited dataset, so
// concurrent visits to one client share nothing mutable. The zero value
// is ready to use; a TrainScratch must not be shared across concurrent
// goroutines.
type TrainScratch struct {
	// DType routes LocalUpdate/Evaluate through the float32 compute path
	// when set to Float32.
	DType DType

	f64 visitState[float64]
	f32 visitState[float32]
	// of is the model f32's network was mirrored from.
	of *nn.Sequential
}

// visitState is one network in one element type with the scratch of its
// passes: the body every visit, LocalUpdate and evaluation runs. A lane
// holds one, in its run's dtype; a TrainScratch holds one per type.
type visitState[T tensor.Float] struct {
	net     *nn.SequentialOf[T]
	sgd     opt.SGD[T]
	ce      nn.SoftmaxCEOf[T]
	proxRef []T
	bt      data.Batcher[T]
}

// network is visitState of either element type.
type network interface {
	train(start []float64, d *data.Dataset, cfg LocalConfig, r *rng.Rng, dst []float64) float64
	load(vec []float64)
	evaluate(d *data.Dataset, batchSize int) (loss, acc float64)
}

// mirror points f32 at model's float32 network, built when the scratch
// first sees model. A model's layer list is fixed at construction, so
// the pointer names the structure the network was built for.
func (ts *TrainScratch) mirror(model *nn.Sequential) *visitState[float32] {
	if ts.of != model {
		ts.f32.net, ts.of = nn.Mirror32(model), model
	}
	return &ts.f32
}

// LocalUpdate trains model in place on d for cfg.Epochs passes of local
// SGD and returns the mean training loss over all processed batches.
// If cfg.ProxMu > 0 the FedProx proximal term is applied against the
// parameters the model held when LocalUpdate was called (i.e. the global
// weights just loaded). r drives batch shuffling — no layer draws
// randomness — so the result depends only on (model weights, dataset,
// cfg, r), never on earlier visits that reused the same model or
// scratch. cfg is checked where it enters the process (Env.Check for a
// run's schedule, the transport's request check for a work order), not
// here on every visit.
//
// On the Float32 path master weights stay float64: the incoming
// parameters are rounded into the float32 network once, the whole local
// pass runs in float32, and the result is widened back. Widening is
// exact, so the trained float32 weights survive the float64 round-trip
// bit-identically — a Float32 wire frame of the widened model carries
// exactly the trained float32 bits.
func (ts *TrainScratch) LocalUpdate(model *nn.Sequential, d *data.Dataset, cfg LocalConfig, r *rng.Rng) float64 {
	w := model.ParamData()
	if ts.DType == Float32 {
		return ts.mirror(model).train(w, d, cfg, r, w)
	}
	ts.f64.net = model
	return ts.f64.train(w, d, cfg, r, w)
}

// train is the one local pass behind every visit and LocalUpdate: it
// loads the full float64 parameter vector start into the network, runs
// localSGD, and stores the trained vector's last len(dst) values into
// dst: all of it, or the final layer's, which ends it. start and dst may
// be one buffer.
func (st *visitState[T]) train(start []float64, d *data.Dataset, cfg LocalConfig, r *rng.Rng, dst []float64) float64 {
	w := st.net.ParamData()
	lo := len(w) - len(dst)
	if d.Len() == 0 {
		copy(dst, start[lo:])
		return 0
	}
	convert(w, start)
	loss := st.localSGD(d, cfg, r)
	convert(dst, w[lo:])
	return loss
}

// load writes the float64 vector vec into the network.
func (st *visitState[T]) load(vec []float64) { convert(st.net.ParamData(), vec) }

// convert writes src into dst: a copy when the element types agree
// (tensor.Convert's same-type form is a scalar loop), otherwise one
// tensor.Convert — a rounding to float32, or an exact widening.
func convert[D, S tensor.Float](dst []D, src []S) {
	if d, ok := any(dst).([]S); ok {
		copy(d, src)
		return
	}
	tensor.Convert(dst, src)
}

// localSGD is the local training pass itself, one body for both element
// types: same batch shuffling draws, same update order, so the float32
// path diverges from the float64 reference only by rounding.
func (st *visitState[T]) localSGD(d *data.Dataset, cfg LocalConfig, r *rng.Rng) float64 {
	net := st.net
	params, grads := net.Params(), net.Grads()
	w, g := net.ParamData(), net.GradData()
	if cfg.ProxMu > 0 {
		st.proxRef = append(st.proxRef[:0], w...)
	}
	// Reset zeroes the velocity in place, so a reused optimizer is
	// bit-equivalent to a fresh one.
	st.sgd.Reconfigure(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	st.sgd.Reset()
	var totalLoss float64
	batches := 0
	st.bt.Bind(d, cfg.BatchSize)
	for e := 0; e < cfg.Epochs; e++ {
		st.bt.Reset(r)
		for {
			b, ok := st.bt.Next()
			if !ok {
				break
			}
			clear(g)
			logits := net.Forward(b.X, true)
			loss, grad, _ := st.ce.Loss(logits, b.Y)
			net.Backward(grad)
			if cfg.ProxMu > 0 {
				opt.AddProximal(w, g, st.proxRef, cfg.ProxMu)
			}
			st.sgd.Step(params, grads)
			totalLoss += loss
			batches++
		}
	}
	return totalLoss / float64(batches)
}

// Evaluate computes mean cross-entropy loss and accuracy of model on d
// (evaluation mode, batched to bound memory) through the scratch's loss
// head and batcher, so evaluation loops allocate nothing per call. On the
// Float32 path the model's parameters are rounded into the float32
// network first. Empty datasets return (0, 0).
func (ts *TrainScratch) Evaluate(model *nn.Sequential, d *data.Dataset, batchSize int) (loss, acc float64) {
	if ts.DType == Float32 {
		st := ts.mirror(model)
		st.load(model.ParamData())
		return st.evaluate(d, batchSize)
	}
	ts.f64.net = model
	return ts.f64.evaluate(d, batchSize)
}

// evaluate is Evaluate on the network as loaded. On a float32 network
// every batch runs the float32 forward pass and the float64-accumulating
// loss head.
func (st *visitState[T]) evaluate(d *data.Dataset, batchSize int) (loss, acc float64) {
	if d.Len() == 0 {
		return 0, 0
	}
	var lossSum float64
	correct := 0
	st.bt.Bind(d, batchSize)
	st.bt.Reset(nil)
	for {
		b, ok := st.bt.Next()
		if !ok {
			break
		}
		logits := st.net.Forward(b.X, false)
		l, _, _ := st.ce.Loss(logits, b.Y)
		lossSum += float64(l * float64(len(b.Y)))
		acc := nn.Accuracy(logits, b.Y)
		correct += int(float64(acc*float64(len(b.Y))) + 0.5)
	}
	return lossSum / float64(d.Len()), float64(correct) / float64(d.Len())
}

// Evaluate is the scratch-free convenience form of TrainScratch.Evaluate
// on the float64 path.
func Evaluate(model *nn.Sequential, d *data.Dataset, batchSize int) (loss, acc float64) {
	var ts TrainScratch
	return ts.Evaluate(model, d, batchSize)
}
