// Package trafficsim generates the ground-truth traffic the rest of the
// system observes, estimates and is scored against.
//
// The paper evaluates on two proprietary taxi-GPS datasets (Beijing,
// Tianjin). This simulator is the substitution documented in DESIGN.md §5:
// it produces per-road per-slot true speeds with exactly the statistical
// structure the paper's method exploits and the failure modes it must
// survive:
//
//   - a class-dependent diurnal profile (morning/evening rush-hour dips on
//     weekdays, a flatter weekend profile), which becomes the "historical
//     average" signal;
//   - a spatially and temporally correlated congestion field, so that
//     neighbouring roads rise above / fall below their historical averages
//     together — the trend-correlation property at the heart of the paper;
//   - localised incidents (accidents, closures) that start on one road,
//     spread to neighbours and decay, producing trend changes that history
//     alone cannot predict — the reason crowdsourced seeds are needed;
//   - per-road idiosyncratic noise, bounding achievable accuracy.
//
// The simulator is deterministic for a given seed and advances one time slot
// at a time. Step advances the congestion field, the incidents and the
// per-road noise draws; speeds are evaluated on first read after Step, the
// whole slot by Speeds and one road by Speed, so a caller that samples a
// subset of roads pays only for the roads it reads.
package trafficsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/roadnet"
	"repro/internal/timeslot"
)

// Config parameterises the simulator. Start from DefaultConfig and override
// fields; a zero field means exactly zero (e.g. IncidentsPerSlot = 0 disables
// incidents).
type Config struct {
	Seed int64

	// TrendPersistence is the AR(1) coefficient of the congestion field in
	// (0, 1); higher values produce slower-moving congestion.
	TrendPersistence float64
	// TrendScale is the standard deviation of the stationary congestion
	// field in log-speed units (e.g. 0.18 → speeds typically within ±18%
	// of the diurnal baseline).
	TrendScale float64
	// DiffusionPasses controls spatial smoothing of congestion innovations:
	// each pass averages a road's innovation with its adjacent roads, so more
	// passes yield wider spatial correlation.
	DiffusionPasses int
	// NoiseScale is the per-road per-slot idiosyncratic log-speed noise.
	NoiseScale float64

	// IncidentsPerSlot is the expected number of new incidents per slot
	// across the whole network.
	IncidentsPerSlot float64
	// IncidentSlots is the mean incident duration in slots.
	IncidentSlots float64
	// IncidentSeverity is the fractional speed reduction at the incident
	// road (0.5 → halved speed); neighbours are hit with geometrically
	// decaying severity up to IncidentRadius hops.
	IncidentSeverity float64
	// IncidentRadius is the hop radius an incident spreads to.
	IncidentRadius int
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		TrendPersistence: 0.92,
		TrendScale:       0.18,
		DiffusionPasses:  3,
		NoiseScale:       0.035,
		IncidentsPerSlot: 0.6,
		IncidentSlots:    9,
		IncidentSeverity: 0.45,
		IncidentRadius:   2,
	}
}

// Validate rejects configurations outside the stable operating envelope.
func (c *Config) Validate() error {
	if c.TrendPersistence < 0 || c.TrendPersistence >= 1 {
		return fmt.Errorf("trafficsim: TrendPersistence must be in [0,1), got %v", c.TrendPersistence)
	}
	if c.TrendScale < 0 || c.NoiseScale < 0 {
		return fmt.Errorf("trafficsim: scales must be non-negative")
	}
	if c.IncidentSeverity < 0 || c.IncidentSeverity >= 1 {
		return fmt.Errorf("trafficsim: IncidentSeverity must be in [0,1), got %v", c.IncidentSeverity)
	}
	if c.IncidentRadius < 0 || c.DiffusionPasses < 0 {
		return fmt.Errorf("trafficsim: negative radius or passes")
	}
	return nil
}

// incident is an active localised slowdown.
type incident struct {
	road      roadnet.RoadID
	endsSlot  int
	severity  float64
	radius    int
	hitRoads  []roadnet.RoadID // affected roads, including the origin
	hitFactor []float64        // speed multiplier per affected road
}

// Simulator produces ground-truth speeds slot by slot.
type Simulator struct {
	net *roadnet.Network
	cal *timeslot.Calendar
	cfg Config
	rng *rand.Rand

	slot      int       // next slot to be produced by Step
	field     []float64 // AR(1) congestion field, log-speed units
	baseline  []float64 // per-road static factor (chronically slow roads)
	sens      []float64 // per-road congestion sensitivity (response amplitude)
	gamma     []power   // per-road response exponent (nonlinearity)
	incidents []incident

	// classFactor is a per-road-class AR(1) common congestion factor:
	// highways city-wide slow together when the city fills up.
	classFactor [4]float64

	// diffusion is the congestion innovations' smoothing stencil.
	diffusion stencil

	// The current slot's speed inputs, set by Step: every road's noise
	// draw (standard normal), its incident multiplier, and each class's
	// diurnal factor. speeds holds every road's speed once evaluated is
	// set.
	noise     []float64
	mult      []float64
	diurnal   [4]float64
	speeds    []float64
	evaluated bool

	// scratch buffers reused across steps
	innov, smooth []float64
}

// New returns a Simulator starting at slot 0.
func New(net *roadnet.Network, cal *timeslot.Calendar, cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := net.NumRoads()
	s := &Simulator{
		net: net, cal: cal, cfg: cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		field:    make([]float64, n),
		baseline: make([]float64, n),
		sens:     make([]float64, n),
		gamma:    make([]power, n),
		noise:    make([]float64, n),
		mult:     make([]float64, n),
		speeds:   make([]float64, n),
		innov:    make([]float64, n),
		smooth:   make([]float64, n),
	}
	for i := range s.baseline {
		// Chronic per-road factor in roughly [0.85, 1.05].
		s.baseline[i] = math.Exp(s.rng.NormFloat64() * 0.05)
		// Start the field at its stationary distribution.
		s.field[i] = s.rng.NormFloat64() * cfg.TrendScale
		// Heterogeneous congestion response: roads agree on the *direction*
		// of congestion (the field's sign) but respond with very different
		// and nonlinear magnitudes — a wide arterial absorbs demand that
		// jams a narrow street. This is the reason the paper transfers
		// trends between roads rather than raw speeds.
		s.sens[i] = math.Exp(s.rng.NormFloat64() * 0.45)                           // amplitude ~ lognormal around 1
		s.gamma[i] = splitPower(math.Exp((s.rng.Float64()*2 - 1) * math.Log(1.8))) // exponent in [1/1.8, 1.8]
	}
	s.diffusion = newStencil(net, buildDiffusionWeights(net))
	s.drawSlot()
	return s, nil
}

// buildDiffusionWeights precomputes, for each road, the diffusion weight of
// each of its adjacent roads, in adjacency order. Weights encode the paper's
// motivating observation: congestion propagates along roads of the same
// class and direction; a side street tells little about the arterial it
// touches, and the opposite carriageway can behave differently.
func buildDiffusionWeights(net *roadnet.Network) [][]float64 {
	roads := net.Roads()
	out := make([][]float64, len(roads))
	for i := range roads {
		r := &roads[i]
		adj := net.Adjacent(r.ID)
		w := make([]float64, len(adj))
		for k, nb := range adj {
			o := net.Road(nb)
			switch {
			case o.From == r.To && o.To == r.From:
				// Opposite carriageway: loosely coupled.
				w[k] = 0.25
			case o.Class == r.Class:
				// Same class sharing a junction: congestion flows freely.
				w[k] = 1.0
			case classDistance(o.Class, r.Class) == 1:
				w[k] = 0.35
			default:
				// A local street touching a highway says very little.
				w[k] = 0.10
			}
		}
		out[i] = w
	}
	return out
}

// classDistance returns how many importance tiers separate two road classes.
func classDistance(a, b roadnet.RoadClass) int {
	d := int(a) - int(b)
	if d < 0 {
		return -d
	}
	return d
}

// Slot returns the slot index of the speeds currently exposed by Speeds.
func (s *Simulator) Slot() int { return s.slot }

// Speeds returns the current true speed of every road in m/s, evaluating
// the slot on its first read after Step. The slice is reused across steps;
// callers that retain it must copy.
func (s *Simulator) Speeds() []float64 {
	if !s.evaluated {
		for i := range s.speeds {
			s.speeds[i] = s.speedOf(i)
		}
		s.evaluated = true
	}
	return s.speeds
}

// Speed returns the current true speed of one road in m/s. Until Speeds
// evaluates the slot, it evaluates this road alone.
func (s *Simulator) Speed(id roadnet.RoadID) float64 {
	if s.evaluated {
		return s.speeds[id]
	}
	return s.speedOf(int(id))
}

// Step advances the simulator to the next slot. It draws the slot's
// randomness but evaluates no speed; Speeds and Speed do that on demand.
func (s *Simulator) Step() {
	s.slot++
	s.advanceField()
	s.spawnIncidents()
	s.expireIncidents()
	s.drawSlot()
}

// Run advances through n slots, invoking fn after each step with the slot
// index and the speeds for that slot (fn must not retain the slice).
func (s *Simulator) Run(n int, fn func(slot int, speeds []float64)) {
	for i := 0; i < n; i++ {
		if fn != nil {
			fn(s.slot, s.Speeds())
		}
		s.Step()
	}
}

// advanceField evolves the spatially-correlated AR(1) congestion field.
func (s *Simulator) advanceField() {
	n := len(s.field)
	for i := 0; i < n; i++ {
		s.innov[i] = s.rng.NormFloat64()
	}
	// Spatial smoothing: repeated weighted neighbourhood averaging over the
	// road adjacency. After k passes the innovation on a road mixes
	// information from roads up to k hops away, but preferentially along
	// same-class, same-direction roads (see buildDiffusionWeights): that is
	// the heterogeneous correlation structure the paper exploits and plain
	// spatial interpolation cannot.
	for pass := 0; pass < s.cfg.DiffusionPasses; pass++ {
		s.diffusion.sweep(s.smooth, s.innov)
		s.innov, s.smooth = s.smooth, s.innov
	}
	// Smoothing shrinks the variance; rescale so the stationary field keeps
	// TrendScale regardless of DiffusionPasses.
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
	// Per-class common factor: roads of one class co-move city-wide (e.g.
	// every expressway fills up together), independent of spatial proximity.
	classScale := 0.5 * s.cfg.TrendScale
	for c := range s.classFactor {
		s.classFactor[c] = a*s.classFactor[c] + s.rng.NormFloat64()*classScale*math.Sqrt(1-a*a)
	}
}

// spawnIncidents draws new incidents from a Poisson-like process.
func (s *Simulator) spawnIncidents() {
	// Bernoulli thinning approximation of a Poisson process: expected count
	// is IncidentsPerSlot.
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

func (s *Simulator) addIncident() {
	origin := roadnet.RoadID(s.rng.Intn(s.net.NumRoads()))
	duration := 1 + int(s.rng.ExpFloat64()*s.cfg.IncidentSlots)
	inc := incident{
		road:     origin,
		endsSlot: s.slot + duration,
		severity: s.cfg.IncidentSeverity * (0.6 + 0.8*s.rng.Float64()),
		radius:   s.cfg.IncidentRadius,
	}
	if inc.severity >= 0.95 {
		inc.severity = 0.95
	}
	hops := s.net.Hops([]roadnet.RoadID{origin}, inc.radius)
	for id, h := range hops {
		if h < 0 {
			continue
		}
		// Severity halves per hop away from the origin.
		sev := inc.severity / math.Pow(2, float64(h))
		inc.hitRoads = append(inc.hitRoads, roadnet.RoadID(id))
		inc.hitFactor = append(inc.hitFactor, 1-sev)
	}
	s.incidents = append(s.incidents, inc)
}

func (s *Simulator) expireIncidents() {
	alive := s.incidents[:0]
	for _, inc := range s.incidents {
		if inc.endsSlot > s.slot {
			alive = append(alive, inc)
		}
	}
	s.incidents = alive
}

// drawSlot prepares the current slot's speed inputs: the incident
// multipliers, the diurnal factors and one noise draw per road, in road
// order. The draws are the slot's last use of the RNG, so evaluating speeds
// later, in any order or not at all, leaves the random stream untouched.
func (s *Simulator) drawSlot() {
	// Incident multipliers (multiplicative across overlapping incidents).
	for i := range s.mult {
		s.mult[i] = 1
	}
	for _, inc := range s.incidents {
		for j, id := range inc.hitRoads {
			s.mult[id] *= inc.hitFactor[j]
		}
	}
	h, weekend := diurnalClock(s.cal, s.slot)
	for c := range s.diurnal {
		s.diurnal[c] = diurnalFactor(h, weekend, roadnet.RoadClass(c))
	}
	for i := range s.noise {
		s.noise[i] = s.rng.NormFloat64()
	}
	s.evaluated = false
}

// speedOf evaluates road i's speed for the current slot.
func (s *Simulator) speedOf(i int) float64 {
	class := s.net.Road(roadnet.RoadID(i)).Class
	base := class.FreeFlowSpeed() * s.baseline[i] * s.diurnal[class]
	noise := math.Exp(s.noise[i] * s.cfg.NoiseScale)
	speed := base * math.Exp(s.response(i, s.field[i]+s.classFactor[class])) * s.mult[i] * noise
	// Physical ceiling and floor: free-flowing traffic exceeds the nominal
	// free-flow speed only slightly, and jams crawl rather than stopping
	// forever.
	if ceiling := class.FreeFlowSpeed() * 1.25; speed > ceiling {
		speed = ceiling
	}
	if floor := 1.5; speed < floor { // ≈ 5.4 km/h
		speed = floor
	}
	return speed
}

// response maps the shared congestion signal f to road i's log-speed
// effect: sign-preserving (trend agreement intact) but with per-road
// amplitude and curvature, so magnitudes decorrelate across roads even
// where trends agree.
func (s *Simulator) response(i int, f float64) float64 {
	sigma := s.cfg.TrendScale
	if sigma <= 0 {
		return f * s.sens[i]
	}
	norm := math.Abs(f) / sigma
	return math.Copysign(s.gamma[i].of(norm)*sigma*s.sens[i], f)
}

// diurnalClock returns the hour of day at the slot's start, fractional, and
// whether the slot falls on a weekend. It reads the time of day from the
// slot of day and the weekend from the slot's profile class, which counts
// weekdays in 24-hour days, so the clock repeats every week for every int
// slot: a time.Time past 2⁶³ ns from the epoch would overflow.
func diurnalClock(cal *timeslot.Calendar, slot int) (h float64, weekend bool) {
	minute := int(time.Duration(cal.SlotOfDay(slot)) * cal.Width() / time.Minute)
	return float64(minute/60) + float64(minute%60)/60, cal.ProfileClass(slot) >= cal.SlotsPerDay()
}

// rushDepth returns the class's peak fractional speed loss at rush hour.
func rushDepth(class roadnet.RoadClass) float64 {
	switch class {
	case roadnet.Highway:
		return 0.45
	case roadnet.Arterial:
		return 0.40
	case roadnet.Collector:
		return 0.30
	case roadnet.Local:
		return 0.22
	default:
		return 0
	}
}

// diurnalFactor returns the deterministic time-of-day speed multiplier for a
// road class at hour h of the day (fractional, as diurnalClock reads it):
// 1.0 free-flow at night, pronounced dips at the weekday rush hours, a
// gentler afternoon dip at weekends. Major roads suffer deeper rush-hour
// dips, matching urban reality.
func diurnalFactor(h float64, weekend bool, class roadnet.RoadClass) float64 {
	depth := rushDepth(class)
	dip := func(center, width float64) float64 {
		d := (h - center) / width
		return math.Exp(-d * d)
	}
	var congestion float64
	if weekend {
		congestion = 0.5 * depth * dip(14, 3.5) // broad afternoon shopping peak
	} else {
		congestion = depth*dip(8.25, 1.3) + depth*dip(18, 1.5) + 0.35*depth*dip(13, 2.5)
	}
	f := 1 - congestion
	if f < 0.2 {
		f = 0.2
	}
	return f
}
