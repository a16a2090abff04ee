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
						dim = local.FinalDim()
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

// fourPassVisit is a Float32 visit as four passes over the parameter
// vector, on a model and float32 mirror of its own: load Start into the
// model, round the model into the mirror, train, widen the mirror back
// into the model tensor by tensor, and flatten the report out of the
// model.
func fourPassVisit(env *Env, v *Visit, out []float64) {
	m := env.NewModel()
	nn.LoadParams(m, v.Start)
	sh := nn.Mirror32(m)
	nn.AssignParams32(sh, m)
	st := visitState[float32]{net: sh}
	st.localSGD(v.Data, v.Cfg, env.ClientRng(v.Client, v.Round))
	wide := m.Params()
	for i, p := range sh.Params() {
		for j, x := range p.Data {
			wide[i].Data[j] = float64(x)
		}
	}
	if v.Layer == FullParams {
		nn.FlattenParamsInto(m, out)
		return
	}
	copy(out, nn.FinalLayerVector(m))
}

// TestLaneFloat32VisitMatchesFourPasses: a Float32 Lane.Visit, which
// rounds Start straight into the lane's network and widens the trained
// range straight into out, writes the bits the four-pass route does —
// for a full-parameter and a final-layer report, with and without the
// FedProx term, on every client of a reused lane. Start is not the
// weights the lane's network was built with, so a visit that trained
// from those would show.
func TestLaneFloat32VisitMatchesFourPasses(t *testing.T) {
	for _, layer := range []int{FullParams, FinalLayer} {
		for _, mu := range []float64{0, 0.1} {
			t.Run(fmt.Sprintf("layer%d/mu%v", layer, mu), func(t *testing.T) {
				env := laneEnv(Float32)
				env.Local.ProxMu = mu
				lane := NewLane(env)
				start := nn.FlattenParams(env.NewModel())
				for i := range start {
					start[i] += 0.01 * math.Sin(float64(i))
				}
				dim := len(start)
				if layer == FinalLayer {
					dim = lane.FinalDim()
				}
				got, want := make([]float64, dim), make([]float64, dim)
				for c := range env.Clients {
					lane.Visit(laneVisit(env, c, wire.Float64, layer, start, nil), got)
					fourPassVisit(env, laneVisit(env, c, wire.Float64, layer, start, nil), want)
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

// TestLaneHoldsOneNetwork: a lane's one network is in its run's dtype —
// a Float32 lane builds no float64 network beside its float32 one.
func TestLaneHoldsOneNetwork(t *testing.T) {
	if _, ok := NewLane(laneEnv(Float32)).net.(*visitState[float32]); !ok {
		t.Error("a Float32 lane holds no float32 network")
	}
	if _, ok := NewLane(laneEnv(Float64)).net.(*visitState[float64]); !ok {
		t.Error("a Float64 lane holds no float64 network")
	}
}

// TestLaneLoadEvaluateMatchesScratch: in both dtypes, Lane.Load then
// Evaluate gives the bits TrainScratch.Evaluate gives on a float64 model
// holding the loaded vector — two vectors per client, as IFCA's probe
// loads its cluster models, on a fresh lane and then after a visit left
// trained weights in its network.
func TestLaneLoadEvaluateMatchesScratch(t *testing.T) {
	onBothDTypes(t, func(t *testing.T, dtype DType) {
		env := laneEnv(dtype)
		lane := NewLane(env)
		a := nn.FlattenParams(env.NewModel())
		b := make([]float64, len(a))
		for i := range b {
			b[i] = a[i] + 0.01*math.Sin(float64(i))
		}
		model := env.NewModel()
		ts := TrainScratch{DType: dtype}
		out := make([]float64, len(a))
		for c, cl := range env.Clients {
			for k, vec := range [][]float64{a, b} {
				lane.Load(vec)
				gotLoss, gotAcc := lane.Evaluate(cl.Train, 16)
				nn.LoadParams(model, vec)
				wantLoss, wantAcc := ts.Evaluate(model, cl.Train, 16)
				if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) || gotAcc != wantAcc {
					t.Fatalf("client %d vector %d: lane (%v, %v), scratch (%v, %v)", c, k, gotLoss, gotAcc, wantLoss, wantAcc)
				}
			}
			lane.Visit(laneVisit(env, c, wire.Float64, FullParams, b, nil), out)
		}
	})
}
