package trafficsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/roadnet"
	"repro/internal/timeslot"
)

// Property: speeds stay physical across random configurations within the
// validated envelope.
func TestSpeedsPhysicalAcrossConfigs(t *testing.T) {
	cfgNet := roadnet.DefaultGenerateConfig()
	cfgNet.BlocksX, cfgNet.BlocksY = 5, 4
	net, err := roadnet.Generate(cfgNet)
	if err != nil {
		t.Fatal(err)
	}
	cal := timeslot.MustCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), 10*time.Minute)

	f := func(seed int64, a, b, c uint8) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.TrendPersistence = 0.5 + float64(a%50)/100 // [0.5, 0.99]
		cfg.TrendScale = 0.05 + float64(b%30)/100      // [0.05, 0.34]
		cfg.IncidentsPerSlot = float64(c%4) / 2        // {0, .5, 1, 1.5}
		sim, err := New(net, cal, cfg)
		if err != nil {
			return false
		}
		ok := true
		run(sim, 40, func(_ int, speeds []float64) {
			for _, v := range speeds {
				if v < 1.5 || v > 40 || math.IsNaN(v) || math.IsInf(v, 0) {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: the response function preserves the congestion sign for every
// road: a positive field can never slow a road below baseline and vice
// versa.
func TestResponsePreservesSign(t *testing.T) {
	cfgNet := roadnet.DefaultGenerateConfig()
	cfgNet.BlocksX, cfgNet.BlocksY = 4, 3
	net, err := roadnet.Generate(cfgNet)
	if err != nil {
		t.Fatal(err)
	}
	cal := timeslot.MustCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), 10*time.Minute)
	sim, err := New(net, cal, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	response := func(i int, field float64) float64 {
		id := roadnet.RoadID(i)
		ids := [lanes]roadnet.RoadID{id, id, id, id}
		f := [lanes]float64{field, field, field, field}
		return sim.response4(&ids, &f)[0]
	}
	for i := 0; i < net.NumRoads(); i += 3 {
		for _, field := range []float64{-0.4, -0.1, 0, 0.1, 0.4} {
			got := response(i, field)
			switch {
			case field > 0 && got <= 0:
				t.Fatalf("road %d: response(%v) = %v flipped sign", i, field, got)
			case field < 0 && got >= 0:
				t.Fatalf("road %d: response(%v) = %v flipped sign", i, field, got)
			case field == 0 && got != 0:
				t.Fatalf("road %d: response(0) = %v", i, got)
			}
		}
		// Monotone in |field|.
		if math.Abs(response(i, 0.4)) <= math.Abs(response(i, 0.1)) {
			t.Fatalf("road %d: response not monotone in field magnitude", i)
		}
	}
}
