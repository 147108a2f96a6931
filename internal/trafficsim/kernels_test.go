package trafficsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/timeslot"
)

// refSim is the simulator before speeds became lazy, kept as the reference
// the kernels are checked against: every Step draws its own randomness,
// smooths its one innovation vector by looping over each road's adjacency,
// reaches an incident's roads through Network.Hops and evaluates every
// road's speed eagerly, one road after another, drawing its noise as it
// goes and with math.Pow for the response power.
type refSim struct {
	net *roadnet.Network
	cal *timeslot.Calendar
	cfg Config
	rng *rand.Rand

	slot        int
	field       []float64
	speeds      []float64
	baseline    []float64
	sens        []float64
	gamma       []float64
	incidents   []incident
	classFactor [4]float64
	diffWeights [][]float64

	innov, smooth []float64
}

func newRefSim(net *roadnet.Network, cal *timeslot.Calendar, cfg Config) *refSim {
	n := net.NumRoads()
	s := &refSim{
		net: net, cal: cal, cfg: cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		field:    make([]float64, n),
		speeds:   make([]float64, n),
		baseline: make([]float64, n),
		innov:    make([]float64, n),
		smooth:   make([]float64, n),
	}
	s.sens = make([]float64, n)
	s.gamma = make([]float64, n)
	for i := range s.baseline {
		s.baseline[i] = math.Exp(s.rng.NormFloat64() * 0.05)
		s.field[i] = s.rng.NormFloat64() * cfg.TrendScale
		s.sens[i] = math.Exp(s.rng.NormFloat64() * 0.45)
		s.gamma[i] = math.Exp((s.rng.Float64()*2 - 1) * math.Log(1.8))
	}
	s.diffWeights = buildDiffusionWeights(net)
	s.computeSpeeds()
	return s
}

func (s *refSim) Step() {
	s.slot++
	s.advanceField()
	s.spawnIncidents()
	s.expireIncidents()
	s.computeSpeeds()
}

func (s *refSim) advanceField() {
	n := len(s.field)
	for i := 0; i < n; i++ {
		s.innov[i] = s.rng.NormFloat64()
	}
	for pass := 0; pass < s.cfg.DiffusionPasses; pass++ {
		refSweep(s.net, s.diffWeights, s.smooth, s.innov)
		s.innov, s.smooth = s.smooth, s.innov
	}
	var sd float64
	for i := 0; i < n; i++ {
		sd += s.innov[i] * s.innov[i]
	}
	sd = math.Sqrt(sd / float64(n))
	if sd < 1e-12 {
		sd = 1
	}
	a := s.cfg.TrendPersistence
	innovScale := s.cfg.TrendScale * math.Sqrt(1-a*a) / sd
	for i := 0; i < n; i++ {
		s.field[i] = a*s.field[i] + s.innov[i]*innovScale
	}
	classScale := 0.5 * s.cfg.TrendScale
	for c := range s.classFactor {
		s.classFactor[c] = a*s.classFactor[c] + s.rng.NormFloat64()*classScale*math.Sqrt(1-a*a)
	}
}

// refSweep is the diffusion pass as one loop over each road's adjacency.
func refSweep(net *roadnet.Network, weights [][]float64, dst, src []float64) {
	for i := range dst {
		adj := net.Adjacent(roadnet.RoadID(i))
		ws := weights[i]
		sum := src[i]
		wsum := 1.0
		for k, nb := range adj {
			sum += ws[k] * src[nb]
			wsum += ws[k]
		}
		dst[i] = sum / wsum
	}
}

func (s *refSim) spawnIncidents() {
	expected := s.cfg.IncidentsPerSlot
	for expected > 0 {
		p := expected
		if p > 1 {
			p = 1
		}
		if s.rng.Float64() < p {
			s.addIncident()
		}
		expected -= 1
	}
}

func (s *refSim) addIncident() {
	origin := roadnet.RoadID(s.rng.Intn(s.net.NumRoads()))
	duration := 1 + int(s.rng.ExpFloat64()*s.cfg.IncidentSlots)
	inc := incident{endsSlot: s.slot + duration}
	severity := s.cfg.IncidentSeverity * (0.6 + 0.8*s.rng.Float64())
	if severity >= 0.95 {
		severity = 0.95
	}
	hops := s.net.Hops([]roadnet.RoadID{origin}, s.cfg.IncidentRadius)
	for id, h := range hops {
		if h < 0 {
			continue
		}
		sev := severity / math.Pow(2, float64(h))
		inc.hitRoads = append(inc.hitRoads, roadnet.RoadID(id))
		inc.hitFactor = append(inc.hitFactor, 1-sev)
	}
	s.incidents = append(s.incidents, inc)
}

func (s *refSim) expireIncidents() {
	alive := s.incidents[:0]
	for _, inc := range s.incidents {
		if inc.endsSlot > s.slot {
			alive = append(alive, inc)
		}
	}
	s.incidents = alive
}

func (s *refSim) computeSpeeds() {
	mult := s.smooth
	for i := range mult {
		mult[i] = 1
	}
	for _, inc := range s.incidents {
		for j, id := range inc.hitRoads {
			mult[id] *= inc.hitFactor[j]
		}
	}
	h, weekend := diurnalClock(s.cal, s.slot)
	var diurnal [4]float64
	for c := range diurnal {
		diurnal[c] = diurnalFactor(h, weekend, roadnet.RoadClass(c))
	}
	roads := s.net.Roads()
	for i := range roads {
		class := roads[i].Class
		base := class.FreeFlowSpeed() * s.baseline[i] * diurnal[class]
		noise := math.Exp(s.rng.NormFloat64() * s.cfg.NoiseScale)
		speed := base * math.Exp(s.response(i, s.field[i]+s.classFactor[class])) * mult[i] * noise
		if ceiling := class.FreeFlowSpeed() * 1.25; speed > ceiling {
			speed = ceiling
		}
		if floor := 1.5; speed < floor {
			speed = floor
		}
		s.speeds[i] = speed
	}
}

func (s *refSim) response(i int, f float64) float64 {
	sigma := s.cfg.TrendScale
	if sigma <= 0 {
		return f * s.sens[i]
	}
	norm := math.Abs(f) / sigma
	return math.Copysign(math.Pow(norm, s.gamma[i])*sigma*s.sens[i], f)
}

// TestLazySpeedsMatchEager: the lazy simulator serves the reference's
// eager speeds bit for bit, over 200 steps, however it is read: not at
// all, through SpeedsOf on random roads (any order, repeats, none, any
// count, so the kernel's last group of four is padded), the whole slot
// through Speeds, or both in either order. It runs on the property test's
// random configurations and on the edges: every DiffusionPasses from 0 to
// 4, IncidentsPerSlot from 0 to above 1, and TrendScale 0. Every step is
// read, so every position within a look-ahead block is; after the last
// step, at a block boundary, both random streams continue alike.
func TestLazySpeedsMatchEager(t *testing.T) {
	cfgNet := roadnet.DefaultGenerateConfig()
	cfgNet.BlocksX, cfgNet.BlocksY = 5, 4
	net, err := roadnet.Generate(cfgNet)
	if err != nil {
		t.Fatal(err)
	}
	cal := timeslot.MustCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), 10*time.Minute)
	n := net.NumRoads()
	const steps = 200
	if steps%lookAhead != 0 {
		t.Fatalf("%d steps end inside a look-ahead block of %d", steps, lookAhead)
	}

	check := func(cfg Config, readSeed int64) bool {
		t.Helper()
		sim, err := New(net, cal, cfg)
		if err != nil {
			t.Error(err)
			return false
		}
		ref := newRefSim(net, cal, cfg)
		reads := rand.New(rand.NewSource(readSeed))
		same := func(step, road int, got float64, how string) bool {
			if want := ref.speeds[road]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%+v step %d road %d: %s read %v, eager %v", cfg, step, road, how, got, want)
				return false
			}
			return true
		}
		readRoads := func(step int) bool {
			k := reads.Intn(n + 1)
			if reads.Intn(3) == 0 {
				k = reads.Intn(2*lanes + 1)
			}
			roads := make([]roadnet.RoadID, k)
			for i := range roads {
				roads[i] = roadnet.RoadID(reads.Intn(n))
			}
			out := make([]float64, k)
			sim.SpeedsOf(roads, out)
			for i, r := range roads {
				if !same(step, int(r), out[i], "SpeedsOf") {
					return false
				}
			}
			return true
		}
		readSlot := func(step int) bool {
			for r, v := range sim.Speeds() {
				if !same(step, r, v, "Speeds") {
					return false
				}
			}
			return true
		}
		for step := 0; step <= steps; step++ {
			ok := true
			switch reads.Intn(4) {
			case 0: // no read at all
			case 1:
				ok = readRoads(step)
			case 2:
				ok = readRoads(step) && readSlot(step)
			case 3:
				ok = readSlot(step) && readRoads(step)
			}
			if !ok {
				return false
			}
			if sim.Slot() != ref.slot {
				t.Errorf("%+v: slot %d, eager %d", cfg, sim.Slot(), ref.slot)
				return false
			}
			if step < steps {
				sim.Step()
				ref.Step()
			}
		}
		for k := 0; k < 8; k++ {
			if got, want := sim.rng.Int63(), ref.rng.Int63(); got != want {
				t.Errorf("%+v: random stream moved: draw %d is %d, eager %d", cfg, k, got, want)
				return false
			}
		}
		return true
	}

	f := func(seed int64, a, b, c, d uint8, readSeed int64) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.TrendPersistence = 0.5 + float64(a%50)/100
		cfg.TrendScale = 0.05 + float64(b%30)/100
		cfg.IncidentsPerSlot = float64(c%6) / 2
		cfg.DiffusionPasses = int(d % 5)
		return check(cfg, readSeed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
	for passes := 0; passes <= 4; passes++ {
		cfg := DefaultConfig()
		cfg.DiffusionPasses = passes
		check(cfg, int64(passes))
	}
	for _, rate := range []float64{0, 0.3, 1, 2.5} {
		cfg := DefaultConfig()
		cfg.IncidentsPerSlot = rate
		check(cfg, 11)
	}
	cfg := DefaultConfig()
	cfg.TrendScale = 0
	check(cfg, 12)
}

// powerOf returns x^g as the speed kernel computes it: from x's Log on the
// split path, with math.Pow everywhere else.
func powerOf(p power, x float64) float64 {
	if p.split(x) {
		return p.times(math.Exp(p.yf*math.Log(x)), x)
	}
	return math.Pow(x, p.g)
}

// TestPowerMatchesMathPow: the split-exponent power equals math.Pow bit for
// bit on a million random (x, g) pairs — the simulator's exponents and
// field magnitudes, exponents across (0.5, 2) and beyond it, x log-uniform
// over every finite float64 — and on the edge cases around its fallbacks.
func TestPowerMatchesMathPow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	split := 0
	check := func(x, g float64) {
		t.Helper()
		p := splitPower(g)
		got, want := powerOf(p, x), math.Pow(x, g)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("x=%v (%#x) g=%v (%#x): %v (%#x), math.Pow %v (%#x)",
				x, math.Float64bits(x), g, math.Float64bits(g), got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if p.split(x) {
			split++
		}
	}
	const pairs = 1_000_000
	for i := 0; i < pairs; i++ {
		var g float64
		switch rng.Intn(3) {
		case 0: // the simulator's exponents
			g = math.Exp((rng.Float64()*2 - 1) * math.Log(1.8))
		case 1:
			g = 0.5 + 1.5*rng.Float64()
		default:
			g = 4 * rng.Float64()
		}
		var x float64
		switch rng.Intn(4) {
		case 0: // the simulator's |field| / TrendScale
			x = math.Abs(rng.NormFloat64()) / 0.18
		case 1: // log-uniform over every finite magnitude, subnormals included
			x = math.Ldexp(1+rng.Float64(), rng.Intn(2098)-1074)
		case 2:
			x = 4 * rng.Float64()
		default:
			x = rng.ExpFloat64()
		}
		check(x, g)
	}
	if split < pairs/2 {
		t.Errorf("only %d of %d pairs took the split path", split, pairs)
	}
	xs := []float64{
		0, math.Copysign(0, -1), 1, math.Nextafter(1, 0), math.Nextafter(1, 2), -2,
		5e-324, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		0x1p-500, math.Nextafter(0x1p-500, 0), math.Nextafter(0x1p-500, 1),
		0x1p500, math.Nextafter(0x1p500, 0), math.Nextafter(0x1p500, math.Inf(1)),
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	gs := []float64{
		1 / 1.8, 1.8, 0.5, math.Nextafter(0.5, 1), 0.75, 1, math.Nextafter(1, 0), math.Nextafter(1, 2),
		1.25, 1.5, math.Nextafter(1.5, 1), math.Nextafter(1.5, 2), math.Nextafter(2, 0), 2, 3,
		0, -1, math.Inf(1), math.NaN(),
	}
	for _, x := range xs {
		for _, g := range gs {
			check(x, g)
		}
	}
}

// randomNetwork builds a network of random roads between random junctions,
// some of them isolated (degree 0).
func randomNetwork(t *testing.T, rng *rand.Rand) *roadnet.Network {
	t.Helper()
	b := roadnet.NewBuilder()
	nodes := 4 + rng.Intn(40)
	for i := 0; i < nodes; i++ {
		b.AddNode(geo.Point{X: 1000 * rng.Float64(), Y: 1000 * rng.Float64()})
	}
	for i := 1 + rng.Intn(120); i > 0; i-- {
		from := roadnet.NodeID(rng.Intn(nodes))
		to := roadnet.NodeID(rng.Intn(nodes - 1))
		if to >= from {
			to++
		}
		b.AddRoad(from, to, roadnet.RoadClass(rng.Intn(4)), nil, "")
	}
	for i := rng.Intn(6); i > 0; i-- { // isolated roads
		from := b.AddNode(geo.Point{X: 2000 + 1000*rng.Float64(), Y: 1000 * rng.Float64()})
		to := b.AddNode(geo.Point{X: 2000 + 1000*rng.Float64(), Y: 1000 * rng.Float64()})
		b.AddRoad(from, to, roadnet.RoadClass(rng.Intn(4)), nil, "")
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestStencilMatchesAdjacencyLoop: the flat sweep writes the adjacency
// loop's pass bit for bit in each of its lookAhead lanes, each lane a
// vector of its own, on random networks with degree-0 roads and on the
// default city.
func TestStencilMatchesAdjacencyLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	isolated := 0
	check := func(net *roadnet.Network) {
		t.Helper()
		weights := buildDiffusionWeights(net)
		st := newStencil(net, weights)
		for r := range weights {
			if len(weights[r]) == 0 {
				isolated++
			}
		}
		n := net.NumRoads()
		src, got := make([]float64, n*lookAhead), make([]float64, n*lookAhead)
		lane, want := make([]float64, n), make([]float64, n)
		for pass := 0; pass < 3; pass++ {
			for i := range src {
				src[i] = rng.NormFloat64()
			}
			st.sweep(got, src)
			for l := 0; l < lookAhead; l++ {
				for r := range lane {
					lane[r] = src[r*lookAhead+l]
				}
				refSweep(net, weights, want, lane)
				for r := range want {
					if g := got[r*lookAhead+l]; math.Float64bits(g) != math.Float64bits(want[r]) {
						t.Fatalf("%d roads, lane %d, road %d (degree %d): sweep %v, adjacency loop %v",
							n, l, r, len(net.Adjacent(roadnet.RoadID(r))), g, want[r])
					}
				}
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		check(randomNetwork(t, rng))
	}
	net, err := roadnet.Generate(roadnet.DefaultGenerateConfig())
	if err != nil {
		t.Fatal(err)
	}
	check(net)
	if isolated == 0 {
		t.Error("random networks gave no degree-0 road")
	}
}
