package fl

import (
	"fmt"
	"math"
	"testing"

	"fedclust/internal/data"
	"fedclust/internal/nn"
	"fedclust/internal/partition"
	"fedclust/internal/rng"
	"fedclust/internal/wire"
)

// laneCodecs is every uplink codec the wire package defines.
var laneCodecs = []wire.Codec{wire.Float64, wire.Float32, wire.Quant8, wire.TopK, wire.TopKQuant8}

// laneEnv is tinyEnv with clients of unequal size: a batch-size multiple,
// a client smaller than one batch, and six distinct n % size tails in
// all — more batch shapes than any fixed-size cache of workspace headers
// would hold, as in every Dirichlet population.
func laneEnv(dtype DType) *Env {
	env := tinyEnv(6, 91)
	r := rng.New(92)
	for i, n := range []int{40, 23, 7, 35, 29, 44} {
		env.Clients[i].Train = tinyDataset(n, r.Derive(uint64(i)))
	}
	env.DType = dtype
	return env
}

// laneLeNetEnv is laneEnv's population shape on the Table-I network:
// LeNet-5 at width 0.5 over 3×16×16 images, six clients with six
// distinct n % size tails.
func laneLeNetEnv(dtype DType) *Env {
	train, test := data.Generate(data.SynthConfig{
		Name: "lane16", C: 3, H: 16, W: 16, Classes: 4, TrainPerClass: 22, TestPerClass: 6,
		ClassSep: 1, Noise: 1, Seed: 93,
	})
	var assign partition.Assignment
	next := 0
	for _, n := range []int{20, 13, 7, 15, 9, 24} {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = next + i
		}
		assign = append(assign, idx)
		next += n
	}
	return &Env{
		Clients: BuildClients(train, test, assign, rng.New(94)),
		Factory: func(r *rng.Rng) *nn.Sequential { return nn.LeNet5(r, 3, 16, 16, 4, 0.5) },
		Rounds:  3,
		Local:   LocalConfig{Epochs: 1, BatchSize: 10, LR: 0.05},
		Seed:    93,
		DType:   dtype,
	}
}

// laneVisit is client c's visit under codec cd reporting the given layer.
func laneVisit(env *Env, c int, cd wire.Codec, layer int, start []float64, ef *ErrorFeedback) *Visit {
	return &Visit{
		Client: c, Round: 3, Layer: layer, Cfg: env.Local, Start: start,
		Data: env.Clients[c].Train, Down: cd.Downlink(), Up: cd, EF: ef,
	}
}

// newLaneEF is the residual accumulator a visit's owner holds under cd.
func newLaneEF(env *Env, cd wire.Codec, dim int) *ErrorFeedback {
	if !cd.Sparse() {
		return nil
	}
	return NewErrorFeedback(cd, 0.25, len(env.Clients), dim)
}

// TestLaneOnePipeline pins the visit pipeline once, on the lane itself:
// for every codec × reported layer × dtype, what the in-process form
// writes into out is bit for bit what a receiver decodes from the frame
// the node form appends — two rounds running, so sparse residuals carry
// over identically on both sides.
func TestLaneOnePipeline(t *testing.T) {
	for _, dtype := range []DType{Float64, Float32} {
		for _, cd := range laneCodecs {
			for _, layer := range []int{FullParams, FinalLayer} {
				t.Run(fmt.Sprintf("%v/%v/layer%d", dtype, cd, layer), func(t *testing.T) {
					env := laneEnv(dtype)
					local, node := NewLane(env), NewLane(env)
					start := nn.FlattenParams(env.NewModel())
					dim := len(start)
					if layer == FinalLayer {
						dim = len(nn.FinalLayerVector(local.Model))
					}
					efLocal, efNode := newLaneEF(env, cd, len(start)), newLaneEF(env, cd, len(start))
					got, work := make([]float64, dim), make([]float64, dim)
					for round := 0; round < 2; round++ {
						for c := range env.Clients {
							local.Visit(laneVisit(env, c, cd, layer, start, efLocal), got)
							// The node loads a start that already crossed the wire.
							v := laneVisit(env, c, cd, layer, start, efNode)
							if v.Down != wire.Float64 {
								narrowed, err := wire.Decode(wire.EncodeInto(nil, v.Down, start))
								if err != nil {
									t.Fatal(err)
								}
								v.Start, v.Down = narrowed, wire.Float64
							}
							frame := node.VisitFrame([]byte("hdr"), v, work)[3:]
							want := append([]float64(nil), start...)
							if fc, _ := wire.FrameCodec(frame); fc.Sparse() {
								if layer != FullParams {
									t.Fatalf("partial report travelled sparse (%v)", fc)
								}
								if err := wire.ApplySparseInto(want, frame); err != nil {
									t.Fatal(err)
								}
							} else {
								var err error
								if want, err = wire.Decode(frame); err != nil {
									t.Fatal(err)
								}
							}
							if len(want) != len(got) {
								t.Fatalf("client %d: frame carries %d values, in-process wrote %d", c, len(want), len(got))
							}
							for i := range want {
								if got[i] != want[i] {
									t.Fatalf("round %d client %d elem %d: in-process %v, decoded frame %v", round, c, i, got[i], want[i])
								}
							}
						}
					}
				})
			}
		}
	}
}

// fourPassVisit is a Float32 visit as four passes over the model vector:
// load Start into the model, round the model into the shadow, train,
// widen the shadow back into the model tensor by tensor, and flatten the
// report out of the model.
func fourPassVisit(l *Lane, v *Visit, out []float64) {
	nn.LoadParams(l.Model, v.Start)
	sh := l.Scratch.shadow.mirror(l.Model)
	nn.AssignParams32(sh, l.Model)
	l.env.ClientRngInto(&l.rng, v.Client, v.Round)
	l.Scratch.f32.localSGD(sh, v.Data, v.Cfg, &l.rng)
	wide := l.Model.Params()
	for i, p := range sh.Params() {
		for j, x := range p.Data {
			wide[i].Data[j] = float64(x)
		}
	}
	if v.Layer == FullParams {
		nn.FlattenParamsInto(l.Model, out)
		return
	}
	copy(out, nn.FinalLayerVector(l.Model))
}

// TestLaneFloat32VisitMatchesFourPasses: a Float32 Lane.Visit, which
// rounds Start straight into the shadow and widens the trained range
// straight into out, writes the bits the four-pass route does — for a
// full-parameter and a final-layer report, with and without the FedProx
// term, on every client of a reused lane. Start is not the lane model's
// own weights, so a visit that trained from those would show.
func TestLaneFloat32VisitMatchesFourPasses(t *testing.T) {
	for _, layer := range []int{FullParams, FinalLayer} {
		for _, mu := range []float64{0, 0.1} {
			t.Run(fmt.Sprintf("layer%d/mu%v", layer, mu), func(t *testing.T) {
				env := laneEnv(Float32)
				env.Local.ProxMu = mu
				lane, oracle := NewLane(env), NewLane(env)
				start := nn.FlattenParams(env.NewModel())
				for i := range start {
					start[i] += 0.01 * math.Sin(float64(i))
				}
				dim := len(start)
				if layer == FinalLayer {
					dim = len(nn.FinalLayerVector(lane.Model))
				}
				got, want := make([]float64, dim), make([]float64, dim)
				for c := range env.Clients {
					lane.Visit(laneVisit(env, c, wire.Float64, layer, start, nil), got)
					fourPassVisit(oracle, laneVisit(env, c, wire.Float64, layer, start, nil), want)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("client %d value %d: visit %v, four passes %v", c, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}
