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

// run advances sim through n slots, invoking fn before each step with the
// slot index and the speeds for that slot (fn must not retain the slice).
func run(sim *Simulator, n int, fn func(slot int, speeds []float64)) {
	for i := 0; i < n; i++ {
		fn(sim.Slot(), sim.Speeds())
		sim.Step()
	}
}

// readSpeed returns road id's current speed, read through SpeedsOf.
func readSpeed(sim *Simulator, id roadnet.RoadID) float64 {
	out := make([]float64, 1)
	sim.SpeedsOf([]roadnet.RoadID{id}, out)
	return out[0]
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
	run(sim, 200, func(slot int, speeds []float64) {
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
	run(sim, slotsPerDay, func(slot int, speeds []float64) {
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
	night := diurnalFactorAt(cal, at(3, 0), roadnet.Arterial)
	rushAM := diurnalFactorAt(cal, at(8, 15), roadnet.Arterial)
	rushPM := diurnalFactorAt(cal, at(18, 0), roadnet.Arterial)
	if !(night > rushAM && night > rushPM) {
		t.Errorf("night %v should exceed rush %v/%v", night, rushAM, rushPM)
	}
	if night > 1.0001 || rushAM < 0.2 {
		t.Errorf("factors out of range: night=%v rush=%v", night, rushAM)
	}
	// Major roads dip deeper than locals at rush hour.
	hw := diurnalFactorAt(cal, at(8, 15), roadnet.Highway)
	lc := diurnalFactorAt(cal, at(8, 15), roadnet.Local)
	if hw >= lc {
		t.Errorf("highway rush factor %v should be below local %v", hw, lc)
	}
	// Saturday (2016-03-12) has no sharp morning rush.
	sat := cal.Slot(time.Date(2016, 3, 12, 8, 15, 0, 0, time.UTC))
	if diurnalFactorAt(cal, sat, roadnet.Arterial) < diurnalFactorAt(cal, at(8, 15), roadnet.Arterial) {
		t.Error("weekend morning should be faster than weekday rush")
	}
}

// TestDiurnalClockWeekly: the diurnal clock reads the wall clock at every
// slot of six weeks around the epoch, on 10-minute and 2-hour calendars,
// and repeats every week for every slot below 2³¹. Read through a
// time.Time, it overflowed 2⁶³ ns past slot 15,372,286 at 10-minute slots,
// so the week at slot 15,374,016 (week 15,252) got garbage.
func TestDiurnalClockWeekly(t *testing.T) {
	for _, width := range []time.Duration{10 * time.Minute, 2 * time.Hour} {
		cal := timeslot.MustCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), width)
		week := cal.SlotsPerWeek()
		for s := -2 * week; s < 4*week; s++ {
			start := cal.Start(s)
			wantH := float64(start.Hour()) + float64(start.Minute())/60
			wantWeekend := start.Weekday() == time.Saturday || start.Weekday() == time.Sunday
			if h, weekend := diurnalClock(cal, s); h != wantH || weekend != wantWeekend {
				t.Fatalf("%v slots, slot %d (%v): clock %v, weekend %v; want %v, %v", width, s, start, h, weekend, wantH, wantWeekend)
			}
		}
	}
	cal := testCal(t)
	week := cal.SlotsPerWeek()
	for _, first := range []int{15374016, (math.MaxInt32/week - 1) * week} {
		for s := first; s < first+week; s++ {
			h, weekend := diurnalClock(cal, s)
			wantH, wantWeekend := diurnalClock(cal, s-first)
			if h != wantH || weekend != wantWeekend {
				t.Fatalf("slot %d: clock %v, weekend %v; slot %d reads %v, %v", s, h, weekend, s-first, wantH, wantWeekend)
			}
		}
	}
}

// diurnalFactorAt returns the simulator's diurnal speed multiplier for class
// at the start of slot.
func diurnalFactorAt(cal *timeslot.Calendar, slot int, class roadnet.RoadClass) float64 {
	h, weekend := diurnalClock(cal, slot)
	return diurnalFactor(h, weekend, class)
}

// TestDiurnalFactorAllocs: the simulator reads the diurnal clock and
// evaluates the profile at every step, so neither may allocate.
func TestDiurnalFactorAllocs(t *testing.T) {
	cal := testCal(t)
	slot := cal.Slot(time.Date(2016, 3, 7, 8, 15, 0, 0, time.UTC))
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += diurnalFactorAt(cal, slot, roadnet.Collector)
	})
	if allocs != 0 {
		t.Errorf("the diurnal profile allocates %v times per call", allocs)
	}
	if sink <= 0 {
		t.Error("the diurnal profile returned no factor")
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
	run(sim, slots, func(_ int, speeds []float64) {
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
	before := readSpeed(sim, 0)
	// Inject an incident at road 0 by enabling incidents with certainty.
	sim.cfg.IncidentsPerSlot = 0
	sim.incidents = append(sim.incidents, incident{
		endsSlot: sim.slot + 10, hitRoads: []roadnet.RoadID{0}, hitFactor: []float64{0.5},
	})
	sim.prepareSlot(sim.noise)
	after := readSpeed(sim, 0)
	if after > before*0.6 {
		t.Errorf("incident speed %v not clearly below %v", after, before)
	}
	if len(sim.incidents) != 1 {
		t.Errorf("active incidents = %d", len(sim.incidents))
	}
	// Expiry.
	for i := 0; i < 12; i++ {
		sim.Step()
	}
	if len(sim.incidents) != 0 {
		t.Errorf("incident did not expire: %d active", len(sim.incidents))
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
		total += len(sim.incidents)
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
