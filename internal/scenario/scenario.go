// Package scenario is a deterministic system-heterogeneity model for the
// federated simulator: per-client compute-speed profiles and availability
// traces drawn from configurable distributions. Through
// fl.Participation.Scenario it is the one place a run models who reports.
//
// The model gives every round a virtual deadline. A client that cannot
// finish its full local pass by the deadline becomes a straggler (it
// reports partial work — fewer completed epochs) or a dropout (nothing
// usable arrives on time); a client whose availability draw fails is
// offline for the round and never reports. Semi-async aggregators
// (methods.FedBuff) additionally read how many rounds late a slow
// client's full update would arrive.
//
// Determinism contract: every draw derives from the model seed via
// rng.Derive — profiles from (profileLabel, client), per-round traces
// from (traceLabel, client, round) — so Outcome is a pure function of
// (client, round) that allocates nothing. Two models built from the same
// (Config, seed, n) produce identical traces forever, regardless of call
// order, worker count, or what else ran in the process.
package scenario

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"fedclust/internal/data"
	"fedclust/internal/rng"
)

// Derivation labels for the model's independent streams. The hostile
// labels (byz/churn/drift/attack/noise) are separate streams so enabling
// any adversarial knob never disturbs the benign profile and trace draws
// — a benign config's outcomes are bit-identical with or without the
// hostile machinery compiled in.
const (
	profileLabel = 0x5ce7a0f11e // per-client speed profiles
	traceLabel   = 0x5ce7a77ace // per-(client, round) availability/jitter
	byzLabel     = 0x5ce7ab12a7 // per-client byzantine cohort + attack kind
	churnLabel   = 0x5ce7ac4192 // per-client join/leave windows
	driftLabel   = 0x5ce7ad21f7 // per-client concept-drift cohort
	attackLabel  = 0x5ce7a66a4b // per-(client, round) garbage payloads
	noiseLabel   = 0x5ce7a10abe // per-client label-noise flips
)

// Config parameterizes the heterogeneity distributions. The zero value
// (with defaults applied) is a benign scenario: every client is nominal
// speed, always available, and finishes exactly on time — a no-op layer.
type Config struct {
	// StragglerFrac is the fraction of clients given a slow compute
	// profile (drawn per client, not per round — slow devices stay slow).
	StragglerFrac float64
	// SlowdownMax bounds how much slower a straggler is than a nominal
	// client: straggler speeds are drawn uniformly from
	// [1/SlowdownMax, 1). Default 4.
	SlowdownMax float64
	// DropoutRate is the per-round probability that a client is offline
	// (crashed, out of battery, off-network) and does no work at all.
	DropoutRate float64
	// Deadline is the round's virtual time budget, in units of the time
	// a nominal (speed-1, jitter-free) client needs for its full local
	// pass. Default 1: nominal clients finish exactly on time; 2 gives
	// 2×-slow stragglers room to finish.
	Deadline float64
	// Jitter is the σ of per-(client, round) lognormal compute noise
	// multiplying each client's pass time (0 = none). Small values
	// (0.1–0.3) make straggling intermittent instead of structural.
	Jitter float64

	// ByzantineFrac is the fraction of clients drawn into the byzantine
	// cohort: exactly ⌊frac·n⌋ clients, selected by per-client rank in
	// the byzantine stream (attackers stay attackers for the run). The
	// exact count keeps the sweep variable honest — per-client Bernoulli
	// draws overshoot small populations (a 0.3 point drawing 8 of 20
	// clients tests a 40% regime under a 30% label) — and makes cohorts
	// nest: the cohort at a smaller fraction is a subset of the cohort at
	// a larger one, so a sweep varies only cohort size, not membership.
	ByzantineFrac float64
	// Attack is the byzantine cohort's behavior. AttackNone with a
	// positive ByzantineFrac defaults to AttackSignFlip; AttackMixed
	// draws each attacker's kind from its own profile stream.
	Attack AttackKind
	// AttackScale is the noise magnitude of AttackGarbage uplinks, in
	// units of parameter standard normals (default 10).
	AttackScale float64
	// LabelNoiseRate is the per-example flip probability of
	// AttackLabelNoise clients' training labels (default 0.5).
	LabelNoiseRate float64

	// ChurnFrac is the fraction of clients that churn: each churner is
	// (50/50, per its own stream) either a late joiner — offline for
	// every round before its drawn join round — or an early leaver,
	// offline from its drawn leave round on. Generalizes the newcomer
	// experiment to mid-training membership change.
	ChurnFrac float64
	// ChurnHorizon bounds the drawn join/leave rounds to [1, ChurnHorizon)
	// — typically the run's round count. Required (≥ 2) when ChurnFrac
	// is positive.
	ChurnHorizon int

	// DriftFrac is the fraction of clients whose training distribution
	// migrates at DriftRound: from that round on, their training labels
	// are rotated by DriftShift classes (test distributions stay put, so
	// measured accuracy reflects how aggregation absorbs the shift).
	DriftFrac float64
	// DriftRound is the 0-based round the drift cohort migrates at.
	DriftRound int
	// DriftShift is the label rotation amount (default 1).
	DriftShift int
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.SlowdownMax == 0 {
		c.SlowdownMax = 4
	}
	if c.Deadline == 0 {
		c.Deadline = 1
	}
	if c.AttackScale == 0 {
		c.AttackScale = 10
	}
	if c.LabelNoiseRate == 0 {
		c.LabelNoiseRate = 0.5
	}
	if c.DriftShift == 0 {
		c.DriftShift = 1
	}
	if c.ByzantineFrac > 0 && c.Attack == AttackNone {
		c.Attack = AttackSignFlip
	}
	return c
}

// Hostile reports whether any adversarial knob is enabled. A non-hostile
// config keeps the pre-hostile fingerprint and outcome streams exactly,
// so old checkpoints stay resumable.
func (c Config) Hostile() bool {
	return c.ByzantineFrac > 0 || c.ChurnFrac > 0 || c.DriftFrac > 0
}

// Check returns an error on out-of-range settings: NaN or infinite
// values anywhere, fractions outside [0,1], a DropoutRate of 1, a
// negative Deadline or Jitter, a SlowdownMax below 1, a churn cohort
// without a horizon, or an unknown attack kind. Zero-valued fields that
// withDefaults replaces (SlowdownMax, Deadline, AttackScale,
// LabelNoiseRate, DriftShift) are accepted as "use the default". fedsim
// runs this on its parsed flags so a hostile config dies with a clean
// message instead of being silently clamped.
func (c Config) Check() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"straggler fraction", c.StragglerFrac},
		{"slowdown max", c.SlowdownMax},
		{"dropout rate", c.DropoutRate},
		{"deadline", c.Deadline},
		{"jitter", c.Jitter},
		{"byzantine fraction", c.ByzantineFrac},
		{"attack scale", c.AttackScale},
		{"label noise rate", c.LabelNoiseRate},
		{"churn fraction", c.ChurnFrac},
		{"drift fraction", c.DriftFrac},
	} {
		if math.IsNaN(f.v) {
			return fmt.Errorf("scenario: %s is NaN", f.name)
		}
		if math.IsInf(f.v, 0) {
			return fmt.Errorf("scenario: %s is infinite", f.name)
		}
	}
	if c.StragglerFrac < 0 || c.StragglerFrac > 1 {
		return fmt.Errorf("scenario: straggler fraction %v out of [0,1]", c.StragglerFrac)
	}
	if c.DropoutRate < 0 || c.DropoutRate >= 1 {
		return fmt.Errorf("scenario: dropout rate %v out of [0,1)", c.DropoutRate)
	}
	if c.SlowdownMax != 0 && c.SlowdownMax < 1 {
		return fmt.Errorf("scenario: slowdown max %v below 1", c.SlowdownMax)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("scenario: non-positive deadline %v", c.Deadline)
	}
	if c.Jitter < 0 {
		return fmt.Errorf("scenario: negative jitter %v", c.Jitter)
	}
	if c.ByzantineFrac < 0 || c.ByzantineFrac > 1 {
		return fmt.Errorf("scenario: byzantine fraction %v out of [0,1]", c.ByzantineFrac)
	}
	if c.Attack < AttackNone || c.Attack > AttackMixed {
		return fmt.Errorf("scenario: unknown attack kind %d", int(c.Attack))
	}
	if c.AttackScale < 0 {
		return fmt.Errorf("scenario: negative attack scale %v", c.AttackScale)
	}
	if c.LabelNoiseRate < 0 || c.LabelNoiseRate > 1 {
		return fmt.Errorf("scenario: label noise rate %v out of [0,1]", c.LabelNoiseRate)
	}
	if c.ChurnFrac < 0 || c.ChurnFrac > 1 {
		return fmt.Errorf("scenario: churn fraction %v out of [0,1]", c.ChurnFrac)
	}
	if c.ChurnHorizon < 0 {
		return fmt.Errorf("scenario: negative churn horizon %d", c.ChurnHorizon)
	}
	if c.ChurnFrac > 0 && c.ChurnHorizon < 2 {
		return fmt.Errorf("scenario: churn fraction %v needs a churn horizon of at least 2 rounds, got %d", c.ChurnFrac, c.ChurnHorizon)
	}
	if c.DriftFrac < 0 || c.DriftFrac > 1 {
		return fmt.Errorf("scenario: drift fraction %v out of [0,1]", c.DriftFrac)
	}
	if c.DriftRound < 0 {
		return fmt.Errorf("scenario: negative drift round %d", c.DriftRound)
	}
	if c.DriftShift < 0 {
		return fmt.Errorf("scenario: negative drift shift %d", c.DriftShift)
	}
	return nil
}

// Profile is one client's fixed compute and adversarial character.
type Profile struct {
	// Speed is the client's relative compute speed: a nominal client is
	// 1; a straggler in (0, 1) needs 1/Speed times as long per epoch.
	Speed float64
	// Straggler marks clients drawn into the slow cohort.
	Straggler bool
	// Byzantine marks clients drawn into the attacker cohort; Attack is
	// the per-client resolved attack kind (AttackNone for benign clients).
	Byzantine bool
	Attack    AttackKind
	// Drift marks clients whose training distribution migrates at the
	// configured drift round.
	Drift bool
	// JoinRound is the first round the client exists (0: from the start);
	// LeaveRound is the first round it is gone (-1: never leaves). Rounds
	// outside [JoinRound, LeaveRound) are offline regardless of the
	// availability trace.
	JoinRound, LeaveRound int
}

// Model is an immutable, seeded heterogeneity model for a fixed client
// population. It implements fl.Scenario. Safe for concurrent use: all
// methods are read-only after New, except the lazily built hostile
// training views, which are mutex-guarded.
type Model struct {
	cfg      Config
	seed     uint64
	profiles []Profile

	// viewMu guards views, the lazily built per-(client, phase) hostile
	// training datasets (see TrainData). The contents are a pure function
	// of (cfg, seed, client, base), so laziness never breaks determinism.
	viewMu sync.Mutex
	views  map[viewKey]*data.Dataset
}

// New draws the per-client profiles for a population of n clients. The
// same (cfg, seed, n) always yields the same model. A cfg that Check
// rejects is a programmer error here and panics with Check's error.
func New(cfg Config, seed uint64, n int) *Model {
	cfg = cfg.withDefaults()
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	if n < 1 {
		panic(fmt.Sprintf("scenario: non-positive population %d", n))
	}
	m := &Model{cfg: cfg, seed: seed, profiles: make([]Profile, n)}
	var root, r rng.Rng
	root.Reseed(seed)
	for i := range m.profiles {
		root.DeriveInto(&r, profileLabel, uint64(i))
		p := Profile{Speed: 1, LeaveRound: -1}
		if r.Float64() < cfg.StragglerFrac {
			p.Straggler = true
			// Uniform over [1/SlowdownMax, 1): a straggler is between
			// barely and SlowdownMax-times slower than nominal.
			lo := 1 / cfg.SlowdownMax
			p.Speed = lo + float64(r.Float64()*(1-lo))
		}
		m.profiles[i] = p
	}
	// Each hostile cohort has its own per-client stream: sweeping one
	// fraction redraws only its own cohort, and a zero fraction consumes
	// nothing — benign models draw exactly what they drew before PR 8.
	if k := int(cfg.ByzantineFrac * float64(len(m.profiles))); k > 0 {
		// Rank selection: the k clients with the smallest variates in the
		// byzantine stream form the cohort (ties broken by index). Each
		// client's draw comes from its own derived stream, so the ranking
		// — hence the cohort — is independent of iteration order.
		type draw struct {
			u float64
			i int
		}
		draws := make([]draw, len(m.profiles))
		for i := range m.profiles {
			root.DeriveInto(&r, byzLabel, uint64(i))
			draws[i] = draw{u: r.Float64(), i: i}
		}
		sort.Slice(draws, func(a, b int) bool {
			if draws[a].u != draws[b].u {
				return draws[a].u < draws[b].u
			}
			return draws[a].i < draws[b].i
		})
		for _, d := range draws[:k] {
			p := &m.profiles[d.i]
			p.Byzantine = true
			p.Attack = cfg.Attack
			if cfg.Attack == AttackMixed {
				// The kind is the next draw in the client's own stream.
				root.DeriveInto(&r, byzLabel, uint64(d.i))
				_ = r.Float64()
				p.Attack = [...]AttackKind{AttackLabelNoise, AttackSignFlip, AttackGarbage}[r.Intn(3)]
			}
		}
	}
	if cfg.ChurnFrac > 0 {
		for i := range m.profiles {
			root.DeriveInto(&r, churnLabel, uint64(i))
			if r.Float64() >= cfg.ChurnFrac {
				continue
			}
			p := &m.profiles[i]
			round := 1 + r.Intn(cfg.ChurnHorizon-1)
			if r.Uint64()&1 == 0 {
				p.JoinRound = round // late joiner (the newcomer case)
			} else {
				p.LeaveRound = round // early leaver
			}
		}
	}
	if cfg.DriftFrac > 0 {
		for i := range m.profiles {
			root.DeriveInto(&r, driftLabel, uint64(i))
			if r.Float64() < cfg.DriftFrac {
				m.profiles[i].Drift = true
			}
		}
	}
	return m
}

// Profiles returns the per-client compute profiles (read-only).
func (m *Model) Profiles() []Profile { return m.profiles }

// Stragglers counts the clients drawn into the slow cohort.
func (m *Model) Stragglers() int {
	k := 0
	for _, p := range m.profiles {
		if p.Straggler {
			k++
		}
	}
	return k
}

// Outcome implements fl.Scenario: how many of the configured local
// epochs client c finishes before the round's virtual deadline, and how
// many rounds late its full-epoch update would arrive (lag < 0: offline).
// Pure and allocation-free — see the package comment for the contract.
func (m *Model) Outcome(client, round, epochs int) (done, lag int) {
	if client < 0 || client >= len(m.profiles) {
		panic(fmt.Sprintf("scenario: client %d outside population of %d", client, len(m.profiles)))
	}
	if epochs < 1 {
		epochs = 1
	}
	// Churn window: a pure comparison, no draws — so the availability and
	// jitter streams below are untouched by churn membership, and a
	// churn-free profile (join 0, leave -1) takes exactly the old path.
	if p := &m.profiles[client]; round < p.JoinRound || (p.LeaveRound >= 0 && round >= p.LeaveRound) {
		return 0, -1
	}
	var root, r rng.Rng
	root.Reseed(m.seed)
	root.DeriveInto(&r, traceLabel, uint64(client), uint64(round))
	// The availability variate is always consumed, so sweeping
	// DropoutRate (0 included) never shifts the jitter draws that follow
	// — only the dropout decision itself varies across rates.
	if avail := r.Float64(); m.cfg.DropoutRate > 0 && avail < m.cfg.DropoutRate {
		return 0, -1
	}
	// pass is the client's time for its full local pass, in units of a
	// nominal client's pass. Nominal, jitter-free clients get exactly 1.
	pass := 1 / m.profiles[client].Speed
	if m.cfg.Jitter > 0 {
		pass *= math.Exp(m.cfg.Jitter * r.NormFloat64())
	}
	d := m.cfg.Deadline
	if pass <= d {
		return epochs, 0 // finishes everything on time
	}
	done = int(float64(epochs) * d / pass) // epochs completed at the deadline
	if done >= epochs {
		// Guard against float rounding pushing a just-late client to a
		// full count: done == epochs is reserved for lag == 0.
		done = epochs - 1
	}
	lag = int(math.Ceil(pass/d)) - 1
	if lag < 1 {
		lag = 1 // pass > d: the full update is at least one round late
	}
	return done, lag
}

// Fingerprint identifies the model for checkpoint/resume validation: two
// models produce identical traces iff they were built from the same
// (Config, seed, n), so hashing that identity pins the whole trace. A
// resumed run whose scenario fingerprint differs from the checkpoint's
// would silently replay under different failures, so fl refuses it.
func (m *Model) Fingerprint() uint64 {
	h := uint64(1469598103934665603) // FNV-1a 64 offset basis
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	mix(m.seed)
	mix(uint64(len(m.profiles)))
	mix(math.Float64bits(m.cfg.StragglerFrac))
	mix(math.Float64bits(m.cfg.SlowdownMax))
	mix(math.Float64bits(m.cfg.DropoutRate))
	mix(math.Float64bits(m.cfg.Deadline))
	mix(math.Float64bits(m.cfg.Jitter))
	// Hostile identity is mixed only when a hostile knob is set, so
	// benign models keep their pre-hostile fingerprint — checkpoints from
	// earlier versions resume unchanged.
	if m.cfg.Hostile() {
		mix(math.Float64bits(m.cfg.ByzantineFrac))
		mix(uint64(m.cfg.Attack))
		mix(math.Float64bits(m.cfg.AttackScale))
		mix(math.Float64bits(m.cfg.LabelNoiseRate))
		mix(math.Float64bits(m.cfg.ChurnFrac))
		mix(uint64(m.cfg.ChurnHorizon))
		mix(math.Float64bits(m.cfg.DriftFrac))
		mix(uint64(m.cfg.DriftRound))
		mix(uint64(m.cfg.DriftShift))
	}
	return h
}
