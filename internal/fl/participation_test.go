package fl

import (
	"testing"
	"testing/quick"
)

func TestSampleRoundFullParticipationDefault(t *testing.T) {
	env := tinyEnv(5, 1)
	invited, reported := env.SampleRoundInto(0, nil, nil)
	if len(invited) != 5 || len(reported) != 5 {
		t.Fatalf("default participation: %d invited, %d reported", len(invited), len(reported))
	}
	for i := range invited {
		if invited[i] != i || reported[i] != i {
			t.Fatal("full participation should invite everyone in order")
		}
	}
}

func TestSampleRoundFraction(t *testing.T) {
	env := tinyEnv(10, 2)
	env.Participation = Participation{Fraction: 0.3}
	invited, reported := env.SampleRoundInto(0, nil, nil)
	if len(invited) != 3 {
		t.Fatalf("fraction 0.3 of 10 invited %d", len(invited))
	}
	if len(reported) != 3 {
		t.Fatalf("no drops configured but %d reported", len(reported))
	}
	// Deterministic per round, varying across rounds.
	invited2, _ := env.SampleRoundInto(0, nil, nil)
	for i := range invited {
		if invited[i] != invited2[i] {
			t.Fatal("SampleRound not deterministic")
		}
	}
	diff := false
	for r := 1; r < 5; r++ {
		other, _ := env.SampleRoundInto(r, nil, nil)
		for i := range other {
			if other[i] != invited[i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("sampling identical across all rounds")
	}
}

func TestSampleRoundDropsButNeverEmpty(t *testing.T) {
	env := tinyEnv(8, 3)
	env.Participation = Participation{DropRate: 0.9}
	for r := 0; r < 50; r++ {
		invited, reported := env.SampleRoundInto(r, nil, nil)
		if len(invited) != 8 {
			t.Fatalf("round %d invited %d", r, len(invited))
		}
		if len(reported) == 0 {
			t.Fatalf("round %d reported nobody", r)
		}
		if len(reported) > len(invited) {
			t.Fatal("reported exceeds invited")
		}
	}
}

func TestSampleRoundReportedSubsetProperty(t *testing.T) {
	f := func(seed uint64, fracRaw, dropRaw uint8) bool {
		env := tinyEnv(9, seed)
		env.Participation = Participation{
			Fraction: float64(fracRaw%100) / 100,
			DropRate: float64(dropRaw%90) / 100,
		}
		invited, reported := env.SampleRoundInto(3, nil, nil)
		inv := map[int]bool{}
		for _, i := range invited {
			if i < 0 || i >= 9 || inv[i] {
				return false // out of range or duplicate
			}
			inv[i] = true
		}
		seen := map[int]bool{}
		for _, i := range reported {
			if !inv[i] || seen[i] {
				return false // reported must be a subset, no duplicates
			}
			seen[i] = true
		}
		return len(reported) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleRoundMinClients(t *testing.T) {
	env := tinyEnv(10, 4)
	env.Participation = Participation{Fraction: 0.01, MinClients: 4}
	invited, _ := env.SampleRoundInto(0, nil, nil)
	if len(invited) != 4 {
		t.Fatalf("MinClients not honored: %d invited", len(invited))
	}
}

func TestParticipationValidate(t *testing.T) {
	for _, p := range []Participation{
		{Fraction: -0.1},
		{Fraction: 1.1},
		{DropRate: 1.0},
		{DropRate: -0.2},
		{MinClients: -1},
	} {
		func(p Participation) {
			defer func() {
				if recover() == nil {
					t.Fatalf("invalid participation %+v did not panic", p)
				}
			}()
			p.Validate()
		}(p)
	}
}
