package trafficsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/roadnet"
	"repro/internal/timeslot"
)

func testNet(t *testing.T) *roadnet.Network {
	t.Helper()
	cfg := roadnet.DefaultGenerateConfig()
	cfg.BlocksX, cfg.BlocksY = 8, 6
	n, err := roadnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testCal(t *testing.T) *timeslot.Calendar {
	t.Helper()
	return timeslot.MustCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), 10*time.Minute)
}

func TestNewValidatesConfig(t *testing.T) {
	net, cal := testNet(t), testCal(t)
	bad := []Config{
		{TrendPersistence: 1.5},
		{TrendScale: -1},
		{IncidentSeverity: 1.0},
		{IncidentRadius: -1},
	}
	for i, cfg := range bad {
		if _, err := New(net, cal, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSpeedsArePhysical(t *testing.T) {
	net, cal := testNet(t), testCal(t)
	sim, err := New(net, cal, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(200, func(slot int, speeds []float64) {
		for id, v := range speeds {
			if v < 1.5 || v > 40 || math.IsNaN(v) {
				t.Fatalf("slot %d road %d speed %v out of physical range", slot, id, v)
			}
		}
	})
}

func TestDeterminism(t *testing.T) {
	net, cal := testNet(t), testCal(t)
	run := func() []float64 {
		sim, err := New(net, cal, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			sim.Step()
		}
		out := make([]float64, len(sim.Speeds()))
		copy(out, sim.Speeds())
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("road %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSeedChangesTraffic(t *testing.T) {
	net, cal := testNet(t), testCal(t)
	cfgA, cfgB := DefaultConfig(), DefaultConfig()
	cfgB.Seed = 42
	simA, _ := New(net, cal, cfgA)
	simB, _ := New(net, cal, cfgB)
	for i := 0; i < 10; i++ {
		simA.Step()
		simB.Step()
	}
	same := 0
	for i := range simA.Speeds() {
		if simA.Speeds()[i] == simB.Speeds()[i] {
			same++
		}
	}
	if same == len(simA.Speeds()) {
		t.Error("different seeds produced identical traffic")
	}
}

func TestRushHourSlowdown(t *testing.T) {
	net, cal := testNet(t), testCal(t)
	cfg := DefaultConfig()
	cfg.IncidentsPerSlot = 0.001 // suppress incidents so the diurnal shape dominates
	sim, err := New(net, cal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Average network speed per slot over one weekday.
	slotsPerDay := cal.SlotsPerDay()
	meanAt := make([]float64, slotsPerDay)
	sim.Run(slotsPerDay, func(slot int, speeds []float64) {
		var sum float64
		for _, v := range speeds {
			sum += v
		}
		meanAt[slot%slotsPerDay] = sum / float64(len(speeds))
	})
	night := meanAt[cal.Slot(time.Date(2016, 3, 7, 3, 0, 0, 0, time.UTC))]
	rush := meanAt[cal.Slot(time.Date(2016, 3, 7, 8, 15, 0, 0, time.UTC))]
	if rush >= night*0.85 {
		t.Errorf("rush-hour mean %v not clearly below night mean %v", rush, night)
	}
}

func TestDiurnalFactorShape(t *testing.T) {
	cal := testCal(t)
	at := func(h, m int) int { return cal.Slot(time.Date(2016, 3, 7, h, m, 0, 0, time.UTC)) }
	night := DiurnalFactor(cal, at(3, 0), roadnet.Arterial)
	rushAM := DiurnalFactor(cal, at(8, 15), roadnet.Arterial)
	rushPM := DiurnalFactor(cal, at(18, 0), roadnet.Arterial)
	if !(night > rushAM && night > rushPM) {
		t.Errorf("night %v should exceed rush %v/%v", night, rushAM, rushPM)
	}
	if night > 1.0001 || rushAM < 0.2 {
		t.Errorf("factors out of range: night=%v rush=%v", night, rushAM)
	}
	// Major roads dip deeper than locals at rush hour.
	hw := DiurnalFactor(cal, at(8, 15), roadnet.Highway)
	lc := DiurnalFactor(cal, at(8, 15), roadnet.Local)
	if hw >= lc {
		t.Errorf("highway rush factor %v should be below local %v", hw, lc)
	}
	// Saturday (2016-03-12) has no sharp morning rush.
	sat := cal.Slot(time.Date(2016, 3, 12, 8, 15, 0, 0, time.UTC))
	if DiurnalFactor(cal, sat, roadnet.Arterial) < DiurnalFactor(cal, at(8, 15), roadnet.Arterial) {
		t.Error("weekend morning should be faster than weekday rush")
	}
}

// TestDiurnalFactorAllocs: the simulator evaluates the diurnal profile for
// every road at every step, so it must not allocate.
func TestDiurnalFactorAllocs(t *testing.T) {
	cal := testCal(t)
	slot := cal.Slot(time.Date(2016, 3, 7, 8, 15, 0, 0, time.UTC))
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += DiurnalFactor(cal, slot, roadnet.Collector)
	})
	if allocs != 0 {
		t.Errorf("DiurnalFactor allocates %v times per call", allocs)
	}
	if sink <= 0 {
		t.Error("DiurnalFactor returned no factor")
	}
}

func TestSpatialTrendCorrelation(t *testing.T) {
	// The core property: adjacent roads' deviations from their own running
	// means must be positively correlated, and much more so than distant
	// roads' deviations.
	net, cal := testNet(t), testCal(t)
	cfg := DefaultConfig()
	cfg.IncidentsPerSlot = 0.001
	sim, err := New(net, cal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slots := 600
	series := make([][]float64, net.NumRoads())
	for i := range series {
		series[i] = make([]float64, 0, slots)
	}
	sim.Run(slots, func(_ int, speeds []float64) {
		for i, v := range speeds {
			series[i] = append(series[i], v)
		}
	})

	corr := func(a, b []float64) float64 {
		ma, mb := mean(a), mean(b)
		var num, da, db float64
		for i := range a {
			x, y := a[i]-ma, b[i]-mb
			num += x * y
			da += x * x
			db += y * y
		}
		if da == 0 || db == 0 {
			return 0
		}
		return num / math.Sqrt(da*db)
	}

	// Average correlation between a road and its first adjacent road.
	var adjSum float64
	var adjN int
	for i := 0; i < net.NumRoads(); i += 7 {
		adj := net.Adjacent(roadnet.RoadID(i))
		if len(adj) == 0 {
			continue
		}
		adjSum += corr(series[i], series[adj[0]])
		adjN++
	}
	adjMean := adjSum / float64(adjN)

	// Average correlation between far-apart roads.
	var farSum float64
	var farN int
	hops := net.Hops([]roadnet.RoadID{0}, -1)
	for i, h := range hops {
		if h >= 12 {
			farSum += corr(series[0], series[i])
			farN++
			if farN >= 40 {
				break
			}
		}
	}
	if farN == 0 {
		t.Skip("network too small for far-pair sampling")
	}
	farMean := farSum / float64(farN)

	if adjMean < 0.3 {
		t.Errorf("adjacent-road correlation %v too weak; trend property missing", adjMean)
	}
	if adjMean < farMean+0.15 {
		t.Errorf("adjacent correlation %v not clearly above distant correlation %v", adjMean, farMean)
	}
}

func TestIncidentsDepressLocalSpeed(t *testing.T) {
	net, cal := testNet(t), testCal(t)
	cfg := DefaultConfig()
	cfg.IncidentsPerSlot = 0 // we inject manually
	cfg.TrendScale = 1e-9    // silence the field
	cfg.NoiseScale = 1e-9
	sim, err := New(net, cal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step()
	before := sim.Speed(0)
	// Inject an incident at road 0 by enabling incidents with certainty.
	sim.cfg.IncidentsPerSlot = 0
	sim.incidents = append(sim.incidents, incident{
		road: 0, endsSlot: sim.slot + 10, severity: 0.5,
		hitRoads: []roadnet.RoadID{0}, hitFactor: []float64{0.5},
	})
	sim.computeSpeeds()
	after := sim.Speed(0)
	if after > before*0.6 {
		t.Errorf("incident speed %v not clearly below %v", after, before)
	}
	if sim.ActiveIncidents() != 1 {
		t.Errorf("ActiveIncidents = %d", sim.ActiveIncidents())
	}
	// Expiry.
	for i := 0; i < 12; i++ {
		sim.Step()
	}
	if sim.ActiveIncidents() != 0 {
		t.Errorf("incident did not expire: %d active", sim.ActiveIncidents())
	}
}

func TestIncidentSpawningRate(t *testing.T) {
	net, cal := testNet(t), testCal(t)
	cfg := DefaultConfig()
	cfg.IncidentsPerSlot = 2.0
	cfg.IncidentSlots = 1 // near-immediate expiry so counts do not pile up
	sim, err := New(net, cal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for i := 0; i < 300; i++ {
		sim.Step()
		total += sim.ActiveIncidents()
	}
	if total == 0 {
		t.Error("no incidents ever active at rate 2/slot")
	}
}

func TestSpeedsSliceIsReused(t *testing.T) {
	net, cal := testNet(t), testCal(t)
	sim, _ := New(net, cal, DefaultConfig())
	p1 := &sim.Speeds()[0]
	sim.Step()
	p2 := &sim.Speeds()[0]
	if p1 != p2 {
		t.Error("Speeds should reuse its backing array across steps")
	}
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
