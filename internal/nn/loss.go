package nn

import (
	"fmt"
	"math"

	"fedclust/internal/tensor"
)

// SoftmaxCEOf couples the softmax activation with cross-entropy loss, the
// standard classification head. It is not a Layer: it terminates the
// network and produces both the scalar loss and the gradient that seeds
// backprop.
//
// Activations are stored in T but the transcendentals and reductions
// (exp, the softmax normalizer, log) run in float64 whatever T is: the
// loss head is a tiny fraction of step cost, and keeping it accurate
// means a float32 network's reported loss diverges from the float64
// path only through the network, not the head.
//
// The zero value is ready to use. Loss writes into workspaces owned by
// the receiver, so the returned grad and probs tensors are valid only
// until the next Loss call, and a loss head must not be copied after
// first use or shared across goroutines.
type SoftmaxCEOf[T tensor.Float] struct {
	gradWS, probsWS ws[T]
}

// SoftmaxCE and SoftmaxCE32 are the loss heads of the two element types.
type (
	SoftmaxCE   = SoftmaxCEOf[float64]
	SoftmaxCE32 = SoftmaxCEOf[float32]
)

// minProb returns the floor a probability is clamped to before log, a
// per-type constant: below the smallest positive value of T (1e-45 is
// under the smallest float32 subnormal), so any nonzero probability
// passes through untouched and only an exact zero is lifted off log(0).
func minProb[T tensor.Float]() float64 {
	var z T
	if _, ok := any(z).(float32); ok {
		return 1e-45
	}
	return 1e-300
}

// Loss computes mean cross-entropy over the batch given raw logits
// (batch, classes) and integer labels, returning the loss in float64,
// the gradient with respect to the logits (already divided by batch
// size), and the softmax probabilities.
func (ce *SoftmaxCEOf[T]) Loss(logits *tensor.Of[T], labels []int) (loss float64, grad, probs *tensor.Of[T]) {
	if len(logits.Shape) != 2 {
		panic(fmt.Sprintf("nn: SoftmaxCE expects (batch, classes) logits, got %v", logits.Shape))
	}
	batch, classes := logits.Shape[0], logits.Shape[1]
	if len(labels) != batch {
		panic(fmt.Sprintf("nn: SoftmaxCE got %d labels for batch of %d", len(labels), batch))
	}
	probs = ce.probsWS.get(batch, classes)
	grad = ce.gradWS.get(batch, classes)
	invB := 1 / float64(batch)
	floor := minProb[T]()
	for b := 0; b < batch; b++ {
		row := logits.Row(b)
		p := probs.Row(b)
		// stable softmax
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			p[j] = T(e)
			sum += e
		}
		inv := 1 / sum
		for j := range p {
			p[j] = T(float64(p[j]) * inv)
		}
		y := labels[b]
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, classes))
		}
		// loss contribution: -log p[y], clamped away from log(0)
		py := float64(p[y])
		if py < floor {
			py = floor
		}
		loss -= math.Log(py)
		g := grad.Row(b)
		for j := range g {
			g[j] = T(float64(p[j]) * invB)
		}
		g[y] -= T(invB)
	}
	return loss * invB, grad, probs
}

// Accuracy returns the fraction of rows whose argmax logit matches the
// label (the first maximum wins ties).
func Accuracy[T tensor.Float](logits *tensor.Of[T], labels []int) float64 {
	if len(logits.Shape) != 2 || logits.Shape[0] != len(labels) {
		panic(fmt.Sprintf("nn: Accuracy shape mismatch %v vs %d labels", logits.Shape, len(labels)))
	}
	if len(labels) == 0 {
		return 0
	}
	correct := 0
	for b := range labels {
		row := logits.Row(b)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == labels[b] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
