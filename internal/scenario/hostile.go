// Hostile-world extensions of the scenario model: per-client byzantine
// attack profiles (label-noise, sign-flip, scaled-garbage uplinks),
// mid-training churn windows, and scheduled concept drift. Everything
// here derives from the model seed through dedicated rng.Derive streams
// (see the label block in scenario.go), so a hostile run is bit-identical
// across worker counts, GOMAXPROCS, and checkpoint/resume — exactly the
// contract the benign model keeps.

package scenario

import (
	"fmt"

	"fedclust/internal/data"
	"fedclust/internal/rng"
)

// AttackKind identifies a byzantine client's behavior.
type AttackKind int

const (
	// AttackNone marks a benign client.
	AttackNone AttackKind = iota
	// AttackLabelNoise poisons the client's training data: each example's
	// label is flipped to a different class with probability
	// Config.LabelNoiseRate. The uplink itself is honest — the update is
	// genuinely trained, just on poisoned data.
	AttackLabelNoise
	// AttackSignFlip reflects the client's update about its starting
	// point: the server receives start − (trained − start), the exact
	// opposite direction of the honest step.
	AttackSignFlip
	// AttackGarbage replaces the uplink with start + scale·N(0, I): pure
	// seeded noise at Config.AttackScale magnitude.
	AttackGarbage
	// AttackMixed draws each byzantine client's kind uniformly from the
	// three concrete attacks (per-client, fixed for the run).
	AttackMixed
)

// ParseAttack maps a fedsim flag value to an AttackKind.
func ParseAttack(name string) (AttackKind, error) {
	switch name {
	case "", "none":
		return AttackNone, nil
	case "label-noise", "labelnoise":
		return AttackLabelNoise, nil
	case "sign-flip", "signflip":
		return AttackSignFlip, nil
	case "garbage":
		return AttackGarbage, nil
	case "mixed":
		return AttackMixed, nil
	default:
		return AttackNone, fmt.Errorf("scenario: unknown attack %q (want none, label-noise, sign-flip, garbage, or mixed)", name)
	}
}

// String returns the flag spelling of the attack kind.
func (k AttackKind) String() string {
	switch k {
	case AttackNone:
		return "none"
	case AttackLabelNoise:
		return "label-noise"
	case AttackSignFlip:
		return "sign-flip"
	case AttackGarbage:
		return "garbage"
	case AttackMixed:
		return "mixed"
	default:
		return fmt.Sprintf("AttackKind(%d)", int(k))
	}
}

// Byzantines counts the clients drawn into the attacker cohort.
func (m *Model) Byzantines() int {
	k := 0
	for _, p := range m.profiles {
		if p.Byzantine {
			k++
		}
	}
	return k
}

// CorruptUpdate applies client c's byzantine uplink corruption in place:
// sign-flip reflects out about start, garbage overwrites it with seeded
// noise around start. Label-noise clients (and benign ones) leave the
// uplink untouched — their poison is in the data, not the wire. The
// garbage payload derives from (attackLabel, client, round), so the same
// visit always uplinks the same bytes regardless of worker count or
// resume point. Allocation-free, like Outcome. Returns whether the
// vector was modified.
func (m *Model) CorruptUpdate(client, round int, out, start []float64) bool {
	if client < 0 || client >= len(m.profiles) {
		panic(fmt.Sprintf("scenario: client %d outside population of %d", client, len(m.profiles)))
	}
	switch m.profiles[client].Attack {
	case AttackSignFlip:
		if start == nil {
			// No broadcast reference: flip the parameters themselves —
			// still adversarial, still deterministic.
			for j := range out {
				out[j] = -out[j]
			}
			return true
		}
		for j := range out {
			out[j] = 2*start[j] - out[j]
		}
		return true
	case AttackGarbage:
		var root, r rng.Rng
		root.Reseed(m.seed)
		root.DeriveInto(&r, attackLabel, uint64(client), uint64(round))
		scale := m.cfg.AttackScale
		if start == nil {
			for j := range out {
				out[j] = scale * r.NormFloat64()
			}
			return true
		}
		for j := range out {
			out[j] = start[j] + float64(scale*r.NormFloat64())
		}
		return true
	default:
		return false
	}
}

// viewKey identifies one lazily built hostile training view.
type viewKey struct {
	client  int
	drifted bool
}

// TrainData returns the dataset client c actually trains on at round:
// the base set for benign stationary clients, a label-noised view for
// AttackLabelNoise attackers, and a label-rotated view for drifted
// clients from DriftRound on (composed when a client is both). Views
// share the base X tensor — only labels are rewritten — and are cached
// per (client, phase), so each client pays the label remap once.
// Callers pass the same base for a given client every time (the engine
// passes the client's training split); the first call wins the cache
// slot. Safe for concurrent use.
func (m *Model) TrainData(client, round int, base *data.Dataset) *data.Dataset {
	if client < 0 || client >= len(m.profiles) {
		panic(fmt.Sprintf("scenario: client %d outside population of %d", client, len(m.profiles)))
	}
	p := &m.profiles[client]
	noisy := p.Attack == AttackLabelNoise
	drifted := p.Drift && round >= m.cfg.DriftRound
	if !noisy && !drifted {
		return base
	}
	key := viewKey{client: client, drifted: drifted}
	m.viewMu.Lock()
	defer m.viewMu.Unlock()
	if v, ok := m.views[key]; ok {
		return v
	}
	v := &data.Dataset{
		Name:    base.Name,
		X:       base.X,
		Y:       append([]int(nil), base.Y...),
		Classes: base.Classes,
		C:       base.C, H: base.H, W: base.W,
	}
	if noisy && base.Classes > 1 {
		// Seeded per-client flips: each flipped label moves to a uniform
		// *different* class, from the client's own noise stream — the
		// same flips whether the view is built at round 0 or round 40.
		var root, r rng.Rng
		root.Reseed(m.seed)
		root.DeriveInto(&r, noiseLabel, uint64(client))
		for i, y := range v.Y {
			if r.Float64() < m.cfg.LabelNoiseRate {
				v.Y[i] = (y + 1 + r.Intn(base.Classes-1)) % base.Classes
			}
		}
	}
	if drifted {
		for i, y := range v.Y {
			v.Y[i] = (y + m.cfg.DriftShift) % base.Classes
		}
	}
	if m.views == nil {
		m.views = make(map[viewKey]*data.Dataset)
	}
	m.views[key] = v
	return v
}
