package scenario_test

// Hostile-layer suite: cohort draws, uplink corruption, training views,
// and churn windows are all pure functions of (Config, seed, client,
// round) — plus the Config.Check domain for every adversarial knob.

import (
	"math"
	"testing"

	"fedclust/internal/data"
	"fedclust/internal/rng"
	"fedclust/internal/scenario"
	"fedclust/internal/tensor"
)

func hostileCfg() scenario.Config {
	return scenario.Config{
		ByzantineFrac: 0.3, Attack: scenario.AttackMixed,
		ChurnFrac: 0.25, ChurnHorizon: 10,
		DriftFrac: 0.3, DriftRound: 4,
	}
}

// TestHostileCohortsAreSeedDeterministic: two models from the same
// (cfg, seed, n) draw identical cohorts; a different seed draws a
// different one (with overwhelming probability at this size).
func TestHostileCohortsAreSeedDeterministic(t *testing.T) {
	a := scenario.New(hostileCfg(), 5, 200)
	b := scenario.New(hostileCfg(), 5, 200)
	for i, pa := range a.Profiles() {
		if pb := b.Profiles()[i]; pa != pb {
			t.Fatalf("client %d profile diverged across identical builds: %+v vs %+v", i, pa, pb)
		}
	}
	c := scenario.New(hostileCfg(), 6, 200)
	same := true
	for i, pa := range a.Profiles() {
		if c.Profiles()[i] != pa {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds drew identical hostile cohorts")
	}
	if a.Byzantines() == 0 {
		t.Fatal("0.3 byzantine fraction over 200 clients drew nobody")
	}
}

// TestHostileDrawsLeaveBenignStreamsUntouched: enabling the adversarial
// knobs must not move a single benign draw — speed profiles and
// availability traces come from their own streams.
func TestHostileDrawsLeaveBenignStreamsUntouched(t *testing.T) {
	benign := scenario.Config{StragglerFrac: 0.3, SlowdownMax: 4, DropoutRate: 0.2, Jitter: 0.2}
	hostile := benign
	hostile.ByzantineFrac = 0.3
	hostile.ChurnFrac = 0 // churn changes outcomes by design; keep it off here
	hostile.DriftFrac = 0.3
	hostile.DriftRound = 2
	mb := scenario.New(benign, 9, 50)
	mh := scenario.New(hostile, 9, 50)
	for i, pb := range mb.Profiles() {
		ph := mh.Profiles()[i]
		if pb.Speed != ph.Speed || pb.Straggler != ph.Straggler {
			t.Fatalf("client %d compute profile moved when hostile knobs turned on", i)
		}
	}
	for client := 0; client < 50; client++ {
		for round := 0; round < 6; round++ {
			bd, bl := mb.Outcome(client, round, 3)
			hd, hl := mh.Outcome(client, round, 3)
			if bd != hd || bl != hl {
				t.Fatalf("outcome(%d,%d) moved: (%d,%d) vs (%d,%d)", client, round, bd, bl, hd, hl)
			}
		}
	}
}

// TestChurnWindows: joiners are offline before their join round, leavers
// from their leave round, and every drawn round sits inside the horizon.
func TestChurnWindows(t *testing.T) {
	cfg := scenario.Config{ChurnFrac: 0.5, ChurnHorizon: 8}
	m := scenario.New(cfg, 11, 100)
	churned := 0
	for i, p := range m.Profiles() {
		if p.JoinRound == 0 && p.LeaveRound == -1 {
			continue
		}
		churned++
		if p.JoinRound != 0 && (p.JoinRound < 1 || p.JoinRound >= 8) {
			t.Fatalf("client %d join round %d outside [1, 8)", i, p.JoinRound)
		}
		if p.LeaveRound != -1 && (p.LeaveRound < 1 || p.LeaveRound >= 8) {
			t.Fatalf("client %d leave round %d outside [1, 8)", i, p.LeaveRound)
		}
		for round := 0; round < 10; round++ {
			done, lag := m.Outcome(i, round, 2)
			inWindow := round >= p.JoinRound && (p.LeaveRound < 0 || round < p.LeaveRound)
			if !inWindow && (done != 0 || lag != -1) {
				t.Fatalf("client %d outside its window at round %d still reported (%d, %d)",
					i, round, done, lag)
			}
			if inWindow && lag < 0 {
				t.Fatalf("client %d inside its window at round %d is offline with no dropout configured", i, round)
			}
		}
	}
	if churned == 0 {
		t.Fatal("0.5 churn fraction over 100 clients drew nobody")
	}
}

// TestCorruptUpdateSignFlip: the reflected uplink is start − (out −
// start), exactly; with no reference it negates.
func TestCorruptUpdateSignFlip(t *testing.T) {
	m := scenario.New(scenario.Config{ByzantineFrac: 1, Attack: scenario.AttackSignFlip}, 3, 4)
	out := []float64{1, 2, -3}
	start := []float64{0.5, 0.5, 0.5}
	if !m.CorruptUpdate(0, 2, out, start) {
		t.Fatal("sign-flip attacker did not corrupt")
	}
	for j, want := range []float64{0, -1, 4} {
		if out[j] != want {
			t.Fatalf("coord %d = %v, want %v", j, out[j], want)
		}
	}
	out = []float64{1, -2, 3}
	m.CorruptUpdate(0, 2, out, nil)
	for j, want := range []float64{-1, 2, -3} {
		if out[j] != want {
			t.Fatalf("nil-start coord %d = %v, want %v", j, out[j], want)
		}
	}
}

// TestCorruptUpdateGarbageIsVisitDeterministic: the garbage payload is a
// pure function of (seed, client, round) — resuming or re-running a
// visit uplinks the same bytes — and distinct visits differ.
func TestCorruptUpdateGarbageIsVisitDeterministic(t *testing.T) {
	m := scenario.New(scenario.Config{ByzantineFrac: 1, Attack: scenario.AttackGarbage, AttackScale: 5}, 3, 4)
	start := []float64{1, 2, 3, 4}
	a := append([]float64(nil), start...)
	b := append([]float64(nil), start...)
	m.CorruptUpdate(1, 7, a, start)
	m.CorruptUpdate(1, 7, b, start)
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			t.Fatalf("coord %d differs across identical visits", j)
		}
	}
	c := append([]float64(nil), start...)
	m.CorruptUpdate(1, 8, c, start)
	same := true
	for j := range a {
		if a[j] != c[j] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct rounds drew identical garbage")
	}
	// Label-noise and benign clients leave the wire honest.
	m2 := scenario.New(scenario.Config{ByzantineFrac: 1, Attack: scenario.AttackLabelNoise}, 3, 4)
	d := append([]float64(nil), start...)
	if m2.CorruptUpdate(0, 0, d, start) {
		t.Fatal("label-noise attacker corrupted its uplink")
	}
}

// hostileBase builds a small labeled dataset for TrainData tests.
func hostileBase(n, classes int) *data.Dataset {
	d := &data.Dataset{
		Name: "hostile-base", X: tensor.New(n, 4), Y: make([]int, n),
		Classes: classes, C: 1, H: 1, W: 4,
	}
	r := rng.New(3)
	for i := range d.Y {
		d.Y[i] = i % classes
		for j := 0; j < 4; j++ {
			d.X.Data[i*4+j] = r.NormFloat64()
		}
	}
	return d
}

// TestTrainDataViews: benign clients get the base dataset back
// untouched; label-noise views flip deterministically; drifted views
// rotate labels from DriftRound on; X is shared, never copied.
func TestTrainDataViews(t *testing.T) {
	base := hostileBase(40, 4)
	cfg := scenario.Config{
		ByzantineFrac: 1, Attack: scenario.AttackLabelNoise, LabelNoiseRate: 0.5,
		DriftFrac: 1, DriftRound: 3, DriftShift: 1,
	}
	m := scenario.New(cfg, 21, 2)
	pre := m.TrainData(0, 0, base)
	if pre == base {
		t.Fatal("label-noise client got the base dataset back")
	}
	if &pre.X.Data[0] != &base.X.Data[0] {
		t.Fatal("view copied X instead of sharing it")
	}
	flips := 0
	for i := range pre.Y {
		if pre.Y[i] != base.Y[i] {
			flips++
		}
	}
	if flips == 0 || flips == len(pre.Y) {
		t.Fatalf("label noise flipped %d/%d labels", flips, len(pre.Y))
	}
	if again := m.TrainData(0, 1, base); again != pre {
		t.Fatal("pre-drift view not cached")
	}
	post := m.TrainData(0, 3, base)
	if post == pre {
		t.Fatal("drift round did not switch the view")
	}
	for i := range post.Y {
		if post.Y[i] != (pre.Y[i]+1)%4 {
			t.Fatalf("drifted label %d = %d, want noise-then-rotate %d", i, post.Y[i], (pre.Y[i]+1)%4)
		}
	}
	// A benign model hands the base back by identity.
	mb := scenario.New(scenario.Config{StragglerFrac: 0.5}, 21, 2)
	if mb.TrainData(0, 0, base) != base {
		t.Fatal("benign model built a view")
	}
	// Determinism across an independently built model.
	m2 := scenario.New(cfg, 21, 2)
	pre2 := m2.TrainData(0, 0, base)
	for i := range pre.Y {
		if pre.Y[i] != pre2.Y[i] {
			t.Fatalf("label flips diverged across identical builds at %d", i)
		}
	}
}

// TestParseAttack: flag spellings round-trip through String.
func TestParseAttack(t *testing.T) {
	for _, k := range []scenario.AttackKind{
		scenario.AttackNone, scenario.AttackLabelNoise, scenario.AttackSignFlip,
		scenario.AttackGarbage, scenario.AttackMixed,
	} {
		got, err := scenario.ParseAttack(k.String())
		if err != nil || got != k {
			t.Errorf("ParseAttack(%q) = (%v, %v), want %v", k.String(), got, err, k)
		}
	}
	if _, err := scenario.ParseAttack("bogus"); err == nil {
		t.Error("ParseAttack(bogus): want error")
	}
}

// TestConfigCheckHostileDomains: every adversarial knob has its domain
// enforced — NaN and infinities anywhere, fractions outside [0,1], churn
// without a horizon, negative rounds and shifts.
func TestConfigCheckHostileDomains(t *testing.T) {
	bad := []scenario.Config{
		{ByzantineFrac: math.NaN()},
		{ByzantineFrac: math.Inf(1)},
		{ByzantineFrac: -0.1},
		{ByzantineFrac: 1.5},
		{ByzantineFrac: 0.2, Attack: scenario.AttackKind(99)},
		{AttackScale: -1},
		{LabelNoiseRate: 1.5},
		{LabelNoiseRate: math.NaN()},
		{ChurnFrac: -0.2, ChurnHorizon: 10},
		{ChurnFrac: 0.2},                  // no horizon
		{ChurnFrac: 0.2, ChurnHorizon: 1}, // horizon too short to draw from
		{ChurnFrac: 0.2, ChurnHorizon: -3},
		{DriftFrac: 2},
		{DriftFrac: math.Inf(-1)},
		{DriftFrac: 0.2, DriftRound: -1},
		{DriftFrac: 0.2, DriftShift: -2},
		{StragglerFrac: math.NaN()},
		{Deadline: -1},
		{SlowdownMax: 0.5},
		{DropoutRate: 1},
	}
	for _, c := range bad {
		if err := c.Check(); err == nil {
			t.Errorf("Check accepted %+v", c)
		}
	}
	good := []scenario.Config{
		{},
		{ByzantineFrac: 0.3, Attack: scenario.AttackGarbage, AttackScale: 2},
		{ChurnFrac: 0.3, ChurnHorizon: 2},
		{DriftFrac: 0.3, DriftRound: 5, DriftShift: 2},
		{StragglerFrac: 0.3, SlowdownMax: 4, DropoutRate: 0.3, Deadline: 0.5, Jitter: 0.2},
	}
	for _, c := range good {
		if err := c.Check(); err != nil {
			t.Errorf("Check rejected %+v: %v", c, err)
		}
	}
}

// FuzzHostileConfig: any accepted configuration must build a model and
// answer Outcome / CorruptUpdate / TrainData without panicking, and two
// models from the same draw must agree bit for bit.
func FuzzHostileConfig(f *testing.F) {
	f.Add(uint64(1), 0.2, 0.25, 0.3, byte(2), 8, 3)
	f.Add(uint64(9), 1.0, 0.0, 0.0, byte(4), 0, 0)
	f.Add(uint64(3), 0.0, 1.0, 1.0, byte(1), 2, 1)
	f.Fuzz(func(t *testing.T, seed uint64, byz, churn, drift float64, attack byte, horizon, driftRound int) {
		cfg := scenario.Config{
			ByzantineFrac: byz, Attack: scenario.AttackKind(attack % 5),
			ChurnFrac: churn, ChurnHorizon: horizon,
			DriftFrac: drift, DriftRound: driftRound,
		}
		if cfg.Check() != nil {
			return
		}
		const n = 6
		a := scenario.New(cfg, seed, n)
		b := scenario.New(cfg, seed, n)
		base := hostileBase(12, 3)
		start := []float64{1, -1, 0.5}
		for client := 0; client < n; client++ {
			for round := 0; round < 4; round++ {
				ad, al := a.Outcome(client, round, 2)
				bd, bl := b.Outcome(client, round, 2)
				if ad != bd || al != bl {
					t.Fatalf("outcome(%d,%d) diverged", client, round)
				}
				av := append([]float64(nil), start...)
				bv := append([]float64(nil), start...)
				if a.CorruptUpdate(client, round, av, start) != b.CorruptUpdate(client, round, bv, start) {
					t.Fatalf("corruption decision diverged at (%d,%d)", client, round)
				}
				for j := range av {
					if math.Float64bits(av[j]) != math.Float64bits(bv[j]) {
						t.Fatalf("corrupted bytes diverged at (%d,%d)", client, round)
					}
				}
				ta, tb := a.TrainData(client, round, base), b.TrainData(client, round, base)
				for i := range ta.Y {
					if ta.Y[i] != tb.Y[i] {
						t.Fatalf("training labels diverged at (%d,%d)", client, round)
					}
				}
			}
		}
	})
}
