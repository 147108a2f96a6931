// Package history implements the historical speed database: per-road
// per-profile-class statistics (slot-of-day × weekday/weekend — the
// "historical average speed" the paper
// defines trends against) plus the per-road time series of relative speeds
// used to estimate trend correlations and to train the hierarchical linear
// model.
//
// A road's series holds at most one sample per slot, in strictly increasing
// slot order. It is stored as a column of rels plus one bitmap pair per
// 64-slot window — which slots were observed, and which of those trended up
// — so two roads' co-observed slots and trend agreements are counted with
// word operations, without reading a sample.
//
// The database is built from (road, slot, speed) observations — produced
// either by the GPS pipeline or by direct probe sampling of the traffic
// simulator — via a Builder, and is immutable once finalised.
package history

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/gps"
	"repro/internal/roadnet"
	"repro/internal/timeslot"
)

// ErrInvalidObservation marks Add/AddObservations failures caused by the
// observation itself — an out-of-range road, a slot that does not fit the
// database's encoding, or a non-finite/non-positive speed. Callers use
// errors.Is against it (mirroring core.ErrInvalidInput one layer up) to
// separate bad crowd reports from internal failures; without the explicit
// rejection a single NaN report would poison the profile means and stds
// every downstream estimate is computed from.
var ErrInvalidObservation = errors.New("invalid observation")

// profileCell holds the per-(road, profile-class) statistics.
type profileCell struct {
	mean float32 // mean observed speed, m/s
	std  float32 // observed standard deviation
	n    uint32  // number of slot-level samples
	nUp  uint32  // samples at or above the mean
}

// DB is the immutable historical database. Each road's series has at most
// one sample per slot: a rel, the mean observed speed in an absolute slot
// relative to the road's historical mean for the slot's profile class, where
// rel ≥ 1 means the trend was "up". Samples are kept in strictly increasing
// slot order, and every reader relies on that.
type DB struct {
	cal      *timeslot.Calendar
	numRoads int
	profile  []profileCell // numRoads × NumProfileClasses, road-major
	overall  []float32     // per-road overall mean speed (fallback)
	series   []roadSeries
}

// roadSeries is one road's samples. rel holds the rels in ascending slot
// order; blocks, ascending by key, says which slots they belong to.
type roadSeries struct {
	rel    []float32
	blocks []block
}

// block is the part of a series in the 64-slot window key·64 … key·64+63.
// Bit i of obs is set when slot key·64+i was observed, and bit i of up when
// that sample's rel is ≥ 1. The window's rels sit in the rel column from
// off on, one per set bit of obs in ascending bit order, so the rel of an
// observed slot is at off + popcount(obs below its bit).
type block struct {
	key int32
	off int32
	obs uint64
	up  uint64
}

// add appends a sample whose slot is above every slot s holds.
func (s *roadSeries) add(slot int32, rel float32) {
	key := slot >> 6
	if n := len(s.blocks); n == 0 || s.blocks[n-1].key != key {
		s.blocks = append(s.blocks, block{key: key, off: int32(len(s.rel))})
	}
	b := &s.blocks[len(s.blocks)-1]
	bit := uint64(1) << (slot & 63)
	b.obs |= bit
	if rel >= 1 {
		b.up |= bit
	}
	s.rel = append(s.rel, rel)
}

// relOf returns the rel of the slot at bit of b, which must be set in b.obs.
func (s *roadSeries) relOf(b *block, bit int) float32 {
	return s.rel[int(b.off)+bits.OnesCount64(b.obs&(1<<bit-1))]
}

// Cal returns the calendar the database is keyed by.
func (db *DB) Cal() *timeslot.Calendar { return db.cal }

// NumRoads returns the number of roads the database covers.
func (db *DB) NumRoads() int { return db.numRoads }

// cell returns the profile cell for a road and absolute slot.
func (db *DB) cell(road roadnet.RoadID, slot int) *profileCell {
	return &db.profile[int(road)*db.cal.NumProfileClasses()+db.cal.ProfileClass(slot)]
}

// Mean returns the historical mean speed of the road for the slot's
// profile class. When the class was never observed it falls back to the
// road's overall mean; ok is false only when the road has no history at all.
func (db *DB) Mean(road roadnet.RoadID, slot int) (mean float64, ok bool) {
	c := db.cell(road, slot)
	if c.n > 0 {
		return float64(c.mean), true
	}
	if db.overall[road] > 0 {
		return float64(db.overall[road]), true
	}
	return 0, false
}

// Std returns the historical standard deviation for the slot’s profile class, or the
// road-overall deviation when the class is unobserved. ok mirrors Mean.
func (db *DB) Std(road roadnet.RoadID, slot int) (std float64, ok bool) {
	c := db.cell(road, slot)
	if c.n > 1 {
		return float64(c.std), true
	}
	if _, haveAny := db.Mean(road, slot); haveAny {
		return 0, true
	}
	return 0, false
}

// PUp returns the historical probability that the road's trend is up in the
// slot's class, with Laplace smoothing so it never reaches 0 or 1.
func (db *DB) PUp(road roadnet.RoadID, slot int) float64 {
	c := db.cell(road, slot)
	return (float64(c.nUp) + 1) / (float64(c.n) + 2)
}

// Rels returns the road's rels in ascending slot order; callers must not
// modify the slice.
func (db *DB) Rels(road roadnet.RoadID) []float32 { return db.series[road].rel }

// EachSample calls fn with every sample of the road, in ascending slot order.
func (db *DB) EachSample(road roadnet.RoadID, fn func(slot int32, rel float32)) {
	s := &db.series[road]
	for _, b := range s.blocks {
		k := b.off
		for m := b.obs; m != 0; m &= m - 1 {
			fn(b.key<<6|int32(bits.TrailingZeros64(m)), s.rel[k])
			k++
		}
	}
}

// RelAt returns the road's rel at slot, and whether the road has a sample
// there.
func (db *DB) RelAt(road roadnet.RoadID, slot int32) (float32, bool) {
	s := &db.series[road]
	i, ok := slices.BinarySearchFunc(s.blocks, slot>>6, func(b block, key int32) int { return cmp.Compare(b.key, key) })
	if !ok {
		return 0, false
	}
	b := &s.blocks[i]
	bit := int(slot & 63)
	if b.obs&(1<<bit) == 0 {
		return 0, false
	}
	return s.relOf(b, bit), true
}

// ObservationCount returns the total number of slot-level samples stored.
func (db *DB) ObservationCount() int {
	var total int
	for _, s := range db.series {
		total += len(s.rel)
	}
	return total
}

// Coverage returns the fraction of roads with at least minSamples samples.
func (db *DB) Coverage(minSamples int) float64 {
	covered := 0
	for _, s := range db.series {
		if len(s.rel) >= minSamples {
			covered++
		}
	}
	return float64(covered) / float64(db.numRoads)
}

// Restrict returns a database over only the given roads, re-indexed densely:
// local road i of the result is global road roads[i] of db, carrying exactly
// the same profile cells, overall mean and sample series (series slices are
// shared, not copied, so restriction is cheap and every pairwise statistic —
// CoObserved, Mean, PUp — over two retained roads is identical to the
// unrestricted database's). Restricting to every road in order returns db
// itself, so a degenerate single-shard restriction stays bitwise-equal to
// the unsharded database. Roads must be in-range and free of duplicates.
func (db *DB) Restrict(roads []roadnet.RoadID) (*DB, error) {
	if len(roads) == db.numRoads {
		identity := true
		for i, r := range roads {
			if int(r) != i {
				identity = false
				break
			}
		}
		if identity {
			return db, nil
		}
	}
	if len(roads) == 0 {
		return nil, fmt.Errorf("history: Restrict needs at least one road")
	}
	nc := db.cal.NumProfileClasses()
	out := &DB{
		cal:      db.cal,
		numRoads: len(roads),
		profile:  make([]profileCell, len(roads)*nc),
		overall:  make([]float32, len(roads)),
		series:   make([]roadSeries, len(roads)),
	}
	seen := make(map[roadnet.RoadID]bool, len(roads))
	for i, r := range roads {
		if int(r) < 0 || int(r) >= db.numRoads {
			//lint:ignore errwrap shard-plan misconfiguration, not request input; no API-boundary sentinel applies
			return nil, fmt.Errorf("history: Restrict road %d out of range [0,%d)", r, db.numRoads)
		}
		if seen[r] {
			return nil, fmt.Errorf("history: Restrict road %d listed twice", r)
		}
		seen[r] = true
		copy(out.profile[i*nc:(i+1)*nc], db.profile[int(r)*nc:(int(r)+1)*nc])
		out.overall[i] = db.overall[r]
		out.series[i] = db.series[r]
	}
	return out, nil
}

// CoObserved invokes fn for every slot in which both roads have a sample,
// in increasing slot order. It is the primitive the correlation graph is
// estimated from.
func (db *DB) CoObserved(u, v roadnet.RoadID, fn func(slot int32, relU, relV float32)) {
	a, b := &db.series[u], &db.series[v]
	i, j := 0, 0
	for i < len(a.blocks) && j < len(b.blocks) {
		x, y := &a.blocks[i], &b.blocks[j]
		switch {
		case x.key < y.key:
			i++
		case x.key > y.key:
			j++
		default:
			for m := x.obs & y.obs; m != 0; m &= m - 1 {
				bit := bits.TrailingZeros64(m)
				fn(x.key<<6|int32(bit), a.relOf(x, bit), b.relOf(y, bit))
			}
			i++
			j++
		}
	}
}

// CoCounts returns the number of slots in which both roads have a sample,
// and in how many of those their trends agree (both rels ≥ 1, or both
// below) — the counts CoObserved's callbacks would add up, from the bitmaps
// alone.
func (db *DB) CoCounts(u, v roadnet.RoadID) (n, agree int) {
	a, b := db.series[u].blocks, db.series[v].blocks
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].key < b[j].key:
			i++
		case a[i].key > b[j].key:
			j++
		default:
			both := a[i].obs & b[j].obs
			n += bits.OnesCount64(both)
			agree += bits.OnesCount64(both &^ (a[i].up ^ b[j].up))
			i++
			j++
		}
	}
	return n, agree
}

// SlotRanks numbers the distinct slots a database holds, 0 for the lowest,
// and gives every sample the number of its slot. Per-slot tables indexed by
// it stay as small as the history, wherever below 2³¹ its slots sit.
type SlotRanks struct {
	numSlots int
	rank     []int32 // rank[start[r]+k] numbers road r's k-th sample's slot
	start    []int
}

// NumSlots returns the number of distinct slots.
func (sr *SlotRanks) NumSlots() int { return sr.numSlots }

// Road returns the slot numbers of the road's samples, in the order of Rels.
func (sr *SlotRanks) Road(road roadnet.RoadID) []int32 {
	return sr.rank[sr.start[road]:sr.start[road+1]]
}

// SlotRanks ORs every road's blocks into the set of distinct slots and
// numbers each sample by the count of that set's slots below its own.
func (db *DB) SlotRanks() *SlotRanks {
	start := make([]int, db.numRoads+1)
	var numBlocks int
	for r, s := range db.series {
		start[r+1] = start[r] + len(s.rel)
		numBlocks += len(s.blocks)
	}
	keys := make([]int32, 0, numBlocks)
	for _, s := range db.series {
		for _, b := range s.blocks {
			keys = append(keys, b.key)
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	// held[j] is the set of slots in window keys[j], and first[j] the
	// number of distinct slots in the windows before it. Each road's blocks
	// are ascending, so each search resumes where the previous one ended.
	held := make([]uint64, len(keys))
	for _, s := range db.series {
		lo := 0
		for _, b := range s.blocks {
			i, _ := slices.BinarySearch(keys[lo:], b.key)
			lo += i
			held[lo] |= b.obs
		}
	}
	first := make([]int32, len(keys))
	var numSlots int32
	for j, m := range held {
		first[j] = numSlots
		numSlots += int32(bits.OnesCount64(m))
	}
	rank := make([]int32, start[db.numRoads])
	for r, s := range db.series {
		k, lo := start[r], 0
		for _, b := range s.blocks {
			i, _ := slices.BinarySearch(keys[lo:], b.key)
			lo += i
			for m := b.obs; m != 0; m &= m - 1 {
				below := uint64(1)<<bits.TrailingZeros64(m) - 1
				rank[k] = first[lo] + int32(bits.OnesCount64(held[lo]&below))
				k++
			}
		}
	}
	return &SlotRanks{numSlots: int(numSlots), rank: rank, start: start}
}

// Builder accumulates observations and produces a DB. Add and
// AddObservations are safe for concurrent use, so a server can fold in
// crowd reports from many request goroutines; Finalize must not run
// concurrently with further Adds.
//
// A Builder made by NewBuilderFrom is a *roll-forward* builder: it carries
// its base DB and recovers a road's aggregates from it lazily, the first
// time the road receives a new observation. Roads never touched stay
// untouched — Finalize shares their profile cells and series with the base
// — and the set of touched (road, slot) aggregates is exposed through
// Dirty, so downstream consumers (correlation rescoring, incremental
// retraining) can work on the delta instead of the whole city.
type Builder struct {
	cal      *timeslot.Calendar
	numRoads int

	mu sync.Mutex
	// log[road] lists the road's observations in arrival order; Finalize
	// sorts it by slot and sums each slot's speeds in that order. In a
	// roll-forward builder, nil means the road is untouched and its base
	// data is reused verbatim, and a touched road's log starts with its
	// recovered base series.
	log [][]observation
	// base is the DB this builder rolls forward, nil for fresh builders.
	base *DB
	// dirty[road] is the set of slots with new observations since base;
	// nil entries mark clean roads. Only tracked when base != nil.
	dirty []map[int32]struct{}
}

// observation is one logged speed. Finalize reuses a road's log in place
// for its slot means: v becomes the mean speed of slot and class caches the
// slot's profile class.
type observation struct {
	slot  int32
	class int32
	v     float64
}

func bySlot(a, b observation) int { return cmp.Compare(a.slot, b.slot) }

// NewBuilder returns an empty Builder for numRoads roads.
func NewBuilder(cal *timeslot.Calendar, numRoads int) (*Builder, error) {
	if numRoads <= 0 {
		//lint:ignore errwrap builder misconfiguration at construction time, not request input; no API-boundary sentinel applies
		return nil, fmt.Errorf("history: numRoads must be positive, got %d", numRoads)
	}
	b := &Builder{cal: cal, numRoads: numRoads, log: make([][]observation, numRoads)}
	return b, nil
}

// Add records one speed observation. Out-of-range road IDs, slots that do
// not fit the database encoding, and non-positive or non-finite speeds are
// rejected with an error matching ErrInvalidObservation.
func (b *Builder) Add(road roadnet.RoadID, slot int, speed float64) error {
	if int(road) < 0 || int(road) >= b.numRoads {
		return fmt.Errorf("history: road %d out of range [0,%d): %w", road, b.numRoads, ErrInvalidObservation)
	}
	if slot < 0 || slot > math.MaxInt32 {
		return fmt.Errorf("history: slot %d outside [0, 2^31): %w", slot, ErrInvalidObservation)
	}
	if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
		return fmt.Errorf("history: invalid speed %v for road %d: %w", speed, road, ErrInvalidObservation)
	}
	b.mu.Lock()
	log := b.log[road]
	if log == nil && b.base != nil {
		log = recoverRoad(b.base, road)
	}
	b.log[road] = append(log, observation{slot: int32(slot), v: speed})
	if b.dirty != nil {
		if b.dirty[road] == nil {
			b.dirty[road] = make(map[int32]struct{})
		}
		b.dirty[road][int32(slot)] = struct{}{}
	}
	b.mu.Unlock()
	return nil
}

// AddObservations records a batch of GPS-pipeline observations, stopping at
// the first invalid one.
func (b *Builder) AddObservations(obs []gps.Observation) error {
	for _, o := range obs {
		if err := b.Add(o.Road, o.Slot, o.Speed); err != nil {
			return err
		}
	}
	return nil
}

// Finalize computes profiles and relative-speed series and returns the
// immutable DB. The Builder must not be used afterwards, and no Add may
// still be in flight when Finalize runs.
//
// A roll-forward builder recomputes only the roads that received new
// observations; every clean road's profile cells and series are shared with
// the base DB (both are immutable), so finalisation cost is proportional to
// the delta, not the city.
func (b *Builder) Finalize() *DB {
	b.mu.Lock()
	defer b.mu.Unlock()
	spw := b.cal.NumProfileClasses()
	db := &DB{
		cal:      b.cal,
		numRoads: b.numRoads,
		profile:  make([]profileCell, b.numRoads*spw),
		overall:  make([]float32, b.numRoads),
		series:   make([]roadSeries, b.numRoads),
	}

	classSum := make([]float64, spw)
	classSq := make([]float64, spw)
	classN := make([]uint32, spw)
	for road, log := range b.log {
		if log == nil && b.base != nil {
			// Untouched roll-forward road: per-road statistics depend only
			// on the road's own observations, so it finalises to exactly
			// its base values, which are shared verbatim.
			copy(db.profile[road*spw:(road+1)*spw], b.base.profile[road*spw:(road+1)*spw])
			db.overall[road] = b.base.overall[road]
			db.series[road] = b.base.series[road]
			continue
		}
		if len(log) == 0 {
			continue
		}
		b.log[road] = nil // the log is consumed below; let it be collected
		// Slot-level means: a stable sort keeps each slot's observations in
		// arrival order, and they are summed in that order.
		if !slices.IsSortedFunc(log, bySlot) {
			slices.SortStableFunc(log, bySlot)
		}
		means := log[:0]
		numBlocks := 0
		for i := 0; i < len(log); {
			slot := log[i].slot
			var sum float64
			var n uint32
			for ; i < len(log) && log[i].slot == slot; i++ {
				sum += log[i].v
				n++
			}
			if len(means) == 0 || means[len(means)-1].slot>>6 != slot>>6 {
				numBlocks++
			}
			means = append(means, observation{slot: slot, class: int32(b.cal.ProfileClass(int(slot))), v: sum / float64(n)})
		}

		// Per-class mean/std and the road-overall mean.
		var overallSum float64
		for _, s := range means {
			classSum[s.class] += s.v
			classSq[s.class] += s.v * s.v
			classN[s.class]++
			overallSum += s.v
		}
		db.overall[road] = float32(overallSum / float64(len(means)))
		cells := db.profile[road*spw : (road+1)*spw]
		for cls, n := range classN {
			if n == 0 {
				continue
			}
			mean := classSum[cls] / float64(n)
			variance := classSq[cls]/float64(n) - mean*mean
			if variance < 0 {
				variance = 0
			}
			cell := &cells[cls]
			cell.mean = float32(mean)
			cell.std = float32(math.Sqrt(variance))
			cell.n = n
		}
		clear(classSum)
		clear(classSq)
		clear(classN)

		// Relative series and up-counts against the finished profiles.
		series := roadSeries{rel: make([]float32, 0, len(means)), blocks: make([]block, 0, numBlocks)}
		for _, s := range means {
			cell := &cells[s.class]
			mean := float64(cell.mean)
			if cell.n == 0 || mean <= 0 {
				mean = float64(db.overall[road])
			}
			if mean <= 0 {
				continue
			}
			rel := float32(s.v / mean)
			series.add(s.slot, rel)
			if rel >= 1 {
				cell.nUp++
			}
		}
		db.series[road] = series
	}

	b.log = nil
	return db
}

// Dirty describes the delta a roll-forward builder accumulated on top of
// its base DB: the roads — and, per road, the slots — whose aggregates
// changed since the base was finalised. A fresh builder (NewBuilder) has no
// base to diff against and returns nil, which callers must read as "no
// delta information", not "no changes".
//
// Dirty reflects the observations added so far; it remains valid after
// Finalize. A changed (road, slot) aggregate invalidates the whole road's
// profile and relative series (the road's per-class means shift, rescaling
// every rel), which is why Roads — not individual slots — is the unit
// downstream rescoring works in.
type Dirty struct {
	// Roads lists the roads with at least one changed aggregate, ascending.
	Roads []roadnet.RoadID
	// Slots[i] lists the changed slots of Roads[i], ascending.
	Slots [][]int32
}

// NumAggregates returns the number of changed (road, slot) aggregates.
func (d *Dirty) NumAggregates() int {
	var n int
	for _, s := range d.Slots {
		n += len(s)
	}
	return n
}

// Dirty returns the (road, slot) aggregates changed since the base DB, or
// nil when the builder was not created by NewBuilderFrom. See type Dirty
// for the contract.
func (b *Builder) Dirty() *Dirty {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dirty == nil {
		return nil
	}
	d := &Dirty{}
	for road, slots := range b.dirty {
		if len(slots) == 0 {
			continue
		}
		ss := make([]int32, 0, len(slots))
		for s := range slots {
			ss = append(ss, s)
		}
		sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
		d.Roads = append(d.Roads, roadnet.RoadID(road))
		d.Slots = append(d.Slots, ss)
	}
	return d
}

// recoverRoad rebuilds one road's observation log from a finalised DB,
// recovering each stored sample as one observation at its recorded mean
// speed (see NewBuilderFrom for why that reconstruction is sound), in slot
// order. The caller holds the builder lock or owns the builder exclusively.
func recoverRoad(db *DB, road roadnet.RoadID) []observation {
	log := make([]observation, 0, len(db.series[road].rel)+1)
	db.EachSample(road, func(slot int32, rel float32) {
		mean, ok := db.Mean(road, int(slot))
		if !ok || mean <= 0 {
			return
		}
		speed := float64(rel) * mean
		if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
			return
		}
		log = append(log, observation{slot: slot, v: speed})
	})
	return log
}

// NewBuilderFrom returns a roll-forward Builder over an existing database,
// so new observations can be appended and the database re-finalised — the
// rolling update a continuously running deployment performs on every model
// rebuild. Construction is O(roads) regardless of history size: a road's
// aggregates are recovered from the base lazily, the first time Add touches
// it, by replaying each stored slot-level sample as one observation at its
// recorded mean speed. Profiles recomputed over the union of recovered and
// new data match a from-scratch build over the combined observations
// (slot-level means are preserved exactly; per-slot observation counts
// inside a slot are not, and are not used by any consumer). Roads never
// touched are not recomputed at all: Finalize shares their profile cells
// and series with the base DB, and Dirty reports exactly the (road, slot)
// aggregates that changed.
func NewBuilderFrom(db *DB) (*Builder, error) {
	b, err := NewBuilder(db.cal, db.numRoads)
	if err != nil {
		return nil, err
	}
	b.base = db
	b.dirty = make([]map[int32]struct{}, db.numRoads)
	return b, nil
}
