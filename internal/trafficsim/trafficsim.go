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
// per-road noise draws, drawing the randomness of eight steps at a time;
// speeds are evaluated on first read after Step, the whole slot by Speeds
// and a list of roads by SpeedsOf, so a caller that samples a subset of
// roads pays only for the roads it reads.
package trafficsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	endsSlot  int
	hitRoads  []roadnet.RoadID // affected roads, the origin first
	hitFactor []float64        // speed multiplier per affected road
}

// lookAhead is how many steps' randomness Step draws at once. The
// diffusion sweep writes out its eight lanes by hand.
const lookAhead = 8

// Simulator produces ground-truth speeds slot by slot.
type Simulator struct {
	net *roadnet.Network
	cal *timeslot.Calendar
	cfg Config
	rng *rand.Rand

	slot      int                 // slot of the speeds Speeds exposes
	field     []float64           // AR(1) congestion field, log-speed units
	free      []float64           // per road: its class's free-flow speed × its chronic factor
	sens      []float64           // per-road congestion sensitivity (response amplitude)
	gamma     []power             // per-road response exponent (nonlinearity)
	class     []roadnet.RoadClass // per road
	all       []roadnet.RoadID    // every road in order, what Speeds evaluates
	incidents []incident

	// classFactor is a per-road-class AR(1) common congestion factor:
	// highways city-wide slow together when the city fills up.
	classFactor [4]float64

	// diffusion is the congestion innovations' smoothing stencil.
	diffusion stencil

	// The look-ahead: the randomness of the steps after slot up to the
	// end of the block drawAhead last drew. next is the block lane the
	// next Step takes, lookAhead when the block is spent. Lane l holds
	// innovations, smoothed, road-major in innov (road r's at
	// r*lookAhead+l; smooth is the sweep's other buffer), the scale that
	// keeps the field's variance, the class-factor draws, the incidents
	// that start, and one noise draw per road in noiseAhead[l*n:(l+1)*n].
	next          int
	innov, smooth []float64
	innovScale    [lookAhead]float64
	classDraw     [lookAhead][4]float64
	spawned       [lookAhead][]incident
	noiseAhead    []float64

	// The current slot's speed inputs: every road's noise draw (standard
	// normal, a lane of noiseAhead), its incident multiplier, and each
	// class's diurnal factor. speeds holds every road's speed once
	// evaluated is set.
	noise     []float64
	mult      []float64
	diurnal   [4]float64
	speeds    []float64
	evaluated bool

	// hop and walk are newIncident's breadth-first walk: hop[r] is road
	// r's hop count from the origin while the walk has reached it, -1
	// otherwise.
	hop  []int32
	walk []roadnet.RoadID
}

// New returns a Simulator starting at slot 0.
func New(net *roadnet.Network, cal *timeslot.Calendar, cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := net.NumRoads()
	s := &Simulator{
		net: net, cal: cal, cfg: cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		field:      make([]float64, n),
		free:       make([]float64, n),
		sens:       make([]float64, n),
		gamma:      make([]power, n),
		class:      make([]roadnet.RoadClass, n),
		all:        make([]roadnet.RoadID, n),
		next:       lookAhead,
		innov:      make([]float64, n*lookAhead),
		smooth:     make([]float64, n*lookAhead),
		noiseAhead: make([]float64, n*lookAhead),
		mult:       make([]float64, n),
		speeds:     make([]float64, n),
		hop:        make([]int32, n),
	}
	for i := range s.free {
		class := net.Road(roadnet.RoadID(i)).Class
		s.class[i] = class
		s.all[i] = roadnet.RoadID(i)
		s.hop[i] = -1
		// The free-flow speed times a chronic per-road factor in roughly
		// [0.85, 1.05].
		s.free[i] = class.FreeFlowSpeed() * math.Exp(s.rng.NormFloat64()*0.05)
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
	// Slot 0's noise takes lane 0; the first Step draws a block over it.
	noise := s.noiseAhead[:n]
	for i := range noise {
		noise[i] = s.rng.NormFloat64()
	}
	s.prepareSlot(noise)
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
		s.speedsOf(s.all, s.speeds)
		s.evaluated = true
	}
	return s.speeds
}

// SpeedsOf writes the current true speed of roads[k], in m/s, to out[k]
// for every k; out must be at least as long as roads. Until Speeds
// evaluates the slot, it evaluates only the roads it is given, in any
// order and with repeats.
func (s *Simulator) SpeedsOf(roads []roadnet.RoadID, out []float64) {
	out = out[:len(roads)]
	if !s.evaluated {
		s.speedsOf(roads, out)
		return
	}
	for k, id := range roads {
		out[k] = s.speeds[id]
	}
}

// Step advances the simulator to the next slot. It evaluates no speed;
// Speeds and SpeedsOf do that on demand. Every lookAhead steps it draws
// the randomness of the next lookAhead in the order one step at a time
// would: a step's innovations, its class-factor draws, its incident draws
// and its noise, then the next step's. No draw depends on the field, so
// drawing them early changes nothing.
func (s *Simulator) Step() {
	s.slot++
	if s.next == lookAhead {
		s.drawAhead()
	}
	l := s.next
	s.next++
	s.advanceField(l)
	s.incidents = append(s.incidents, s.spawned[l]...)
	s.expireIncidents()
	n := len(s.field)
	s.prepareSlot(s.noiseAhead[l*n : (l+1)*n])
}

// drawAhead draws the randomness of slots slot … slot+lookAhead−1 into
// the block's lanes and smooths the block's innovations.
func (s *Simulator) drawAhead() {
	n := len(s.field)
	for l := range lookAhead {
		for i := 0; i < n; i++ {
			s.innov[i*lookAhead+l] = s.rng.NormFloat64()
		}
		for c := range s.classDraw[l] {
			s.classDraw[l][c] = s.rng.NormFloat64()
		}
		s.spawned[l] = s.spawnIncidents(s.spawned[l][:0], s.slot+l)
		noise := s.noiseAhead[l*n : (l+1)*n]
		for i := range noise {
			noise[i] = s.rng.NormFloat64()
		}
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
	var sumSq [lookAhead]float64
	for i := 0; i < n; i++ {
		v := (*[lookAhead]float64)(s.innov[i*lookAhead:])
		for l := range sumSq {
			sumSq[l] += v[l] * v[l]
		}
	}
	a := s.cfg.TrendPersistence
	for l, sq := range sumSq {
		sd := math.Sqrt(sq / float64(n))
		if sd < 1e-12 {
			sd = 1
		}
		s.innovScale[l] = s.cfg.TrendScale * math.Sqrt(1-a*a) / sd
	}
	s.next = 0
}

// advanceField evolves the spatially-correlated AR(1) congestion field by
// lane l of the look-ahead.
func (s *Simulator) advanceField(l int) {
	a := s.cfg.TrendPersistence
	innovScale := s.innovScale[l]
	for i := range s.field {
		s.field[i] = a*s.field[i] + s.innov[i*lookAhead+l]*innovScale
	}
	// Per-class common factor: roads of one class co-move city-wide (e.g.
	// every expressway fills up together), independent of spatial proximity.
	classScale := 0.5 * s.cfg.TrendScale
	for c := range s.classFactor {
		s.classFactor[c] = a*s.classFactor[c] + s.classDraw[l][c]*classScale*math.Sqrt(1-a*a)
	}
}

// spawnIncidents appends to dst the incidents that start at slot, drawn
// from a Poisson-like process.
func (s *Simulator) spawnIncidents(dst []incident, slot int) []incident {
	// Bernoulli thinning approximation of a Poisson process: expected count
	// is IncidentsPerSlot.
	expected := s.cfg.IncidentsPerSlot
	for expected > 0 {
		p := expected
		if p > 1 {
			p = 1
		}
		if s.rng.Float64() < p {
			dst = append(dst, s.newIncident(slot))
		}
		expected -= 1
	}
	return dst
}

// newIncident draws an incident that starts at slot. It reaches the roads
// within IncidentRadius hops of its origin by a breadth-first walk of that
// neighbourhood alone.
func (s *Simulator) newIncident(slot int) incident {
	origin := roadnet.RoadID(s.rng.Intn(s.net.NumRoads()))
	duration := 1 + int(s.rng.ExpFloat64()*s.cfg.IncidentSlots)
	severity := s.cfg.IncidentSeverity * (0.6 + 0.8*s.rng.Float64())
	if severity >= 0.95 {
		severity = 0.95
	}
	walk := append(s.walk[:0], origin)
	s.hop[origin] = 0
	for k := 0; k < len(walk); k++ {
		h := s.hop[walk[k]]
		if int(h) >= s.cfg.IncidentRadius {
			continue
		}
		for _, nb := range s.net.Adjacent(walk[k]) {
			if s.hop[nb] < 0 {
				s.hop[nb] = h + 1
				walk = append(walk, nb)
			}
		}
	}
	inc := incident{
		endsSlot:  slot + duration,
		hitRoads:  slices.Clone(walk),
		hitFactor: make([]float64, len(walk)),
	}
	for k, id := range walk {
		// Severity halves per hop away from the origin.
		inc.hitFactor[k] = 1 - severity/math.Pow(2, float64(s.hop[id]))
		s.hop[id] = -1
	}
	s.walk = walk
	return inc
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

// prepareSlot sets the current slot's speed inputs: the incident
// multipliers, the diurnal factors and the noise draws.
func (s *Simulator) prepareSlot(noise []float64) {
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
	s.noise = noise
	s.evaluated = false
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
