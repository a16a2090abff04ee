package transport

import (
	"encoding/json"
	"fmt"

	"fedclust/internal/data"
	"fedclust/internal/fl"
	"fedclust/internal/nn"
	"fedclust/internal/rng"
	"fedclust/internal/wire"
)

// Spec is the environment description a coordinator ships to joining
// nodes so both sides hold identical client populations: the synthetic
// dataset recipe, the label-group partition, the model architecture, and
// the deterministic seed. Everything a node derives from it — datasets,
// client splits, model weights, per-visit RNG streams — is a pure
// function of the spec, which is what makes a networked round
// reproducible: the coordinator never ships data, only the recipe.
//
// The handshake carries it as JSON: it is exchanged once per node, so
// wire compactness is irrelevant next to debuggability.
type Spec struct {
	// Dataset is the synthetic data recipe (deterministic per seed).
	Dataset data.SynthConfig `json:"dataset"`
	// Groups are the label groups clients are drawn from; PerGroup the
	// client count per group (fl.BuildGroupClients).
	Groups   [][]int `json:"groups"`
	PerGroup []int   `json:"per_group"`
	// Hidden lists the MLP's hidden-layer widths (input and output
	// widths come from the dataset geometry).
	Hidden []int `json:"hidden"`
	// Seed is the environment seed every deterministic stream derives
	// from.
	Seed uint64 `json:"seed"`
	// Rounds, EvalEvery, and Local mirror the fl.Env fields (the
	// coordinator's schedule; nodes receive effective configs per
	// request but build the same Env shape for validation).
	Rounds    int            `json:"rounds"`
	EvalEvery int            `json:"eval_every"`
	Local     fl.LocalConfig `json:"local"`
	// DType selects the numeric compute path every node runs ("",
	// "float64", or "float32"; empty keeps the float64 default). It rides
	// the spec rather than each train request so the whole federation
	// agrees on one path per run — the per-request wire codec stays an
	// independent knob.
	DType string `json:"dtype,omitempty"`
	// Codec names the uplink parameter codec every node replies with
	// ("" keeps float64; see wire.ParseCodec). Like DType it rides the
	// spec, not the train request: a sparse uplink needs node-held
	// error-feedback state, so the whole federation must agree on one
	// codec per run. TopKFrac is the sparse codecs' kept fraction
	// (0 means fl.DefaultTopKFrac).
	Codec    string  `json:"codec,omitempty"`
	TopKFrac float64 `json:"topk_frac,omitempty"`
}

// Spec size ceilings: generous for anything this simulator trains,
// small enough that a corrupt or hostile spec cannot drive an
// allocation bomb before validation.
const (
	maxSpecDim       = 1 << 12 // C, H, or W individually
	maxSpecPixels    = 1 << 22 // C·H·W per image
	maxSpecPerClass  = 1 << 20 // examples per class per split
	maxSpecClasses   = 1 << 12
	maxSpecExamples  = 1 << 24 // examples across all classes and splits
	maxSpecClients   = 1 << 16
	maxSpecHidden    = 1 << 20 // scalars per hidden layer
	maxSpecHiddenNum = 64      // hidden layers
)

// check applies the rules Build needs before it allocates anything: the
// dataset recipe's own Check, size ceilings (a hostile size field must not
// drive an allocation bomb), and the group rules of the label partition.
// The rest of the run's identity is Env.Check's, once the environment
// exists.
func (s *Spec) check() error {
	d := s.Dataset
	if err := d.Check(); err != nil {
		return fmt.Errorf("transport: spec dataset: %w", err)
	}
	// Each dimension is bounded individually before the product is
	// taken in 64 bits — a hostile spec must not wrap the product past
	// the ceiling.
	if d.C > maxSpecDim || d.H > maxSpecDim || d.W > maxSpecDim ||
		int64(d.C)*int64(d.H)*int64(d.W) > maxSpecPixels {
		return fmt.Errorf("transport: spec image geometry %dx%dx%d out of bounds", d.C, d.H, d.W)
	}
	if d.Classes > maxSpecClasses {
		return fmt.Errorf("transport: spec class count %d out of bounds", d.Classes)
	}
	if d.TrainPerClass > maxSpecPerClass || d.TestPerClass > maxSpecPerClass {
		return fmt.Errorf("transport: spec per-class counts %d/%d out of bounds", d.TrainPerClass, d.TestPerClass)
	}
	if int64(d.TrainPerClass+d.TestPerClass)*int64(d.Classes) > maxSpecExamples {
		return fmt.Errorf("transport: spec describes %d examples, limit %d",
			int64(d.TrainPerClass+d.TestPerClass)*int64(d.Classes), int64(maxSpecExamples))
	}
	if len(s.Groups) == 0 || len(s.Groups) != len(s.PerGroup) {
		return fmt.Errorf("transport: spec has %d groups but %d per-group counts", len(s.Groups), len(s.PerGroup))
	}
	clients := 0
	group := make(map[int]int, d.Classes) // label → the group that owns it
	for i, g := range s.Groups {
		if len(g) == 0 {
			return fmt.Errorf("transport: spec group %d is empty", i)
		}
		for _, label := range g {
			if label < 0 || label >= d.Classes {
				return fmt.Errorf("transport: spec group %d has label %d outside %d classes", i, label, d.Classes)
			}
			if prev, dup := group[label]; dup {
				return fmt.Errorf("transport: spec label %d is in both group %d and group %d", label, prev, i)
			}
			group[label] = i
		}
		if s.PerGroup[i] < 1 {
			return fmt.Errorf("transport: spec group %d has %d clients", i, s.PerGroup[i])
		}
		clients += s.PerGroup[i]
	}
	if clients > maxSpecClients {
		return fmt.Errorf("transport: spec describes %d clients, limit %d", clients, maxSpecClients)
	}
	if len(s.Hidden) > maxSpecHiddenNum {
		return fmt.Errorf("transport: spec has %d hidden layers, limit %d", len(s.Hidden), maxSpecHiddenNum)
	}
	for _, h := range s.Hidden {
		if h < 1 || h > maxSpecHidden {
			return fmt.Errorf("transport: spec hidden width %d out of bounds", h)
		}
	}
	return nil
}

// Marshal encodes the spec for the welcome frame.
func (s *Spec) Marshal() ([]byte, error) { return json.Marshal(s) }

// ParseSpec decodes a welcome frame's spec payload.
func ParseSpec(b []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("transport: bad spec: %w", err)
	}
	return &s, nil
}

// Build constructs the environment the spec describes. Coordinator and
// node call the same code, so their replicas are identical by
// construction. A spec arrives off the wire, so every rule it can break
// is an error here: check runs before anything is materialized, and the
// built environment must pass Env.Check.
func (s *Spec) Build() (*fl.Env, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	dtype, err := fl.ParseDType(s.DType)
	if err != nil {
		return nil, fmt.Errorf("transport: spec dtype: %w", err)
	}
	codec, err := wire.ParseCodec(s.Codec)
	if err != nil {
		return nil, fmt.Errorf("transport: spec codec: %w", err)
	}
	train, test := data.Generate(s.Dataset)
	clients, _ := fl.BuildGroupClients(train, test, s.Groups, s.PerGroup, rng.New(s.Seed))
	dims := make([]int, 0, len(s.Hidden)+2)
	dims = append(dims, s.Dataset.C*s.Dataset.H*s.Dataset.W)
	dims = append(dims, s.Hidden...)
	dims = append(dims, s.Dataset.Classes)
	env := &fl.Env{
		Clients:   clients,
		Factory:   func(r *rng.Rng) *nn.Sequential { return nn.MLP(r, dims...) },
		Rounds:    s.Rounds,
		Local:     s.Local,
		Seed:      s.Seed,
		EvalEvery: s.EvalEvery,
		DType:     dtype,
		Codec:     codec,
		TopKFrac:  s.TopKFrac,
	}
	if err := env.Check(); err != nil {
		return nil, fmt.Errorf("transport: bad spec: %w", err)
	}
	return env, nil
}
