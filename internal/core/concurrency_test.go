package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// TestEstimateSeedSpeedValidation tables every malformed seed speed through
// Estimate and asserts each is rejected as invalid input (so the API layer
// can map it to a 400 rather than a 500).
func TestEstimateSeedSpeedValidation(t *testing.T) {
	ctx := context.Background()
	d, est := buildEstimator(t)
	cases := []struct {
		name  string
		speed float64
	}{
		{"zero", 0},
		{"negative", -3.5},
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := est.Estimate(ctx, d.Slot(), map[roadnet.RoadID]float64{0: tc.speed})
			if err == nil {
				t.Fatalf("seed speed %v accepted", tc.speed)
			}
			if !errors.Is(err, ErrInvalidInput) {
				t.Errorf("seed speed %v: error %v is not ErrInvalidInput", tc.speed, err)
			}
		})
	}
	// Out-of-range seed roads are the caller's fault too.
	_, err := est.Estimate(ctx, d.Slot(), map[roadnet.RoadID]float64{roadnet.RoadID(d.Net.NumRoads()): 5})
	if !errors.Is(err, ErrInvalidInput) {
		t.Errorf("out-of-range seed: error %v is not ErrInvalidInput", err)
	}
	// A valid round must not be tainted by the sentinel.
	if _, err := est.Estimate(ctx, d.Slot(), map[roadnet.RoadID]float64{0: 12}); err != nil {
		t.Fatalf("valid round failed: %v", err)
	}
}

// TestConcurrentPrepareEstimate: views derived from one base share what
// build trained and change nothing of it. One goroutine derives views,
// alternately from the base and from a view derived from it before the
// hammer started, each time to a set that needs a fresh specialisation,
// while rounds run on the base and on that derived view; every round must
// answer bit for bit as the same round did before the hammer. Under -race
// this also checks that deriving writes nothing a round reads. The network
// is deliberately tiny and the iteration counts high, so derivations
// overlap many rounds.
func TestConcurrentPrepareEstimate(t *testing.T) {
	ctx := context.Background()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 5, 4
	cfg.HistoryDays = 4
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewView(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := d.Net.NumRoads()
	derived, setA, err := base.SelectSeeds(ctx, n/10)
	if err != nil {
		t.Fatal(err)
	}
	// A disjoint-ish second set, so deriving from derived specialises anew.
	setB := make([]roadnet.RoadID, len(setA))
	for i, s := range setA {
		setB[i] = roadnet.RoadID((int(s) + 7) % n)
	}
	slot, truth := d.NextTruth()
	seedSpeeds := map[roadnet.RoadID]float64{}
	for _, s := range setA {
		seedSpeeds[s] = truth[s]
	}
	views := [2]*View{base, derived}
	var want [2]*Estimate
	for i, v := range views {
		if want[i], err = v.Estimate(ctx, slot, seedSpeeds); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sets := [2][]roadnet.RoadID{setA, setB}
		for i := 0; i < 40; i++ {
			if _, err := views[i%2].WithSeeds(ctx, sets[i%2]); err != nil {
				t.Errorf("WithSeeds: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(v *View, want *Estimate) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got, err := v.Estimate(ctx, slot, seedSpeeds)
				if err != nil {
					t.Errorf("Estimate: %v", err)
					return
				}
				for r := range want.Speeds {
					if got.Speeds[r] != want.Speeds[r] || got.PUp[r] != want.PUp[r] {
						t.Errorf("road %d moved from %v (P(up) %v) to %v (%v) while views were derived",
							r, want.Speeds[r], want.PUp[r], got.Speeds[r], got.PUp[r])
						return
					}
				}
			}
		}(views[g%2], want[g%2])
	}
	wg.Wait()
}
