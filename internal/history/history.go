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
// The database is built from (road, slot, speed) observations — probe
// samples of the traffic simulator (internal/dataset) or crowd reports
// folded in by a rebuild — via a Builder, and is immutable once finalised.
package history

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/roadnet"
	"repro/internal/timeslot"
)

// ErrInvalidObservation marks Add failures caused by the observation
// itself — an out-of-range road, a slot that does not fit the database's
// encoding, or a non-finite/non-positive speed. Callers use
// errors.Is against it (mirroring core.ErrInvalidInput one layer up) to
// separate bad crowd reports from internal failures; without the explicit
// rejection a single NaN report would poison the profile means every
// downstream estimate is computed from.
var ErrInvalidObservation = errors.New("invalid observation")

// profileCell holds the per-(road, profile-class) statistics. It is 8
// bytes, so a road's cells at 10-minute slots fill one 2,304 B allocation,
// an exact size class. The counts saturate at math.MaxUint16 (see
// saturate16): a class gains at most one sample a day.
type profileCell struct {
	mean float32 // mean observed speed, m/s
	n    uint16  // number of slot-level samples
	nUp  uint16  // samples at or above the mean
}

// saturate16 returns n, or math.MaxUint16 when n is larger.
func saturate16(n uint32) uint16 { return uint16(min(n, math.MaxUint16)) }

// DB is the immutable historical database. Each road's series has at most
// one sample per slot: a rel, the mean observed speed in an absolute slot
// relative to the road's historical mean for the slot's profile class, where
// rel ≥ 1 means the trend was "up". Samples are kept in strictly increasing
// slot order, and every reader relies on that.
//
// Each road's profile cells and series are allocated on their own, so a
// roll-forward shares an untouched road's with its base, and a road's are
// collected as soon as no database holds the road's version. Cells cut
// from one array per build would keep the whole array alive while any one
// road still shared it: on a city whose rebuilds each touch half the roads,
// about ten generations of arrays, mostly dead.
type DB struct {
	cal      *timeslot.Calendar
	numRoads int
	profile  [][]profileCell // per road, NumProfileClasses cells
	overall  []float32       // per-road overall mean speed (fallback)
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
	return &db.profile[road][db.cal.ProfileClass(slot)]
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

// EachAligned calls fn, in ascending slot order, for every sample of road r
// whose slot also holds a sample of feats[0], with r's rel and the rels of
// the longest prefix of feats observed in that slot: rels[i] is feats[i]'s
// rel, and len(rels) ≥ 1. It reads them from the AND of the roads' block
// bitmaps, with no search per sample. fn must not keep rels, which the next
// call overwrites.
func (db *DB) EachAligned(r roadnet.RoadID, feats []roadnet.RoadID, fn func(slot int32, rel float32, rels []float32)) {
	if len(feats) == 0 {
		return
	}
	s := &db.series[r]
	// Each feature's first block not yet passed, and its block in the
	// current window, nil if it has none there.
	cur := make([]struct {
		next int
		blk  *block
	}, len(feats))
	rels := make([]float32, len(feats))
	for bi := range s.blocks {
		b := &s.blocks[bi]
		for i, f := range feats {
			fb, c := db.series[f].blocks, &cur[i]
			for c.next < len(fb) && fb[c.next].key < b.key {
				c.next++
			}
			c.blk = nil
			if c.next < len(fb) && fb[c.next].key == b.key {
				c.blk = &fb[c.next]
			}
		}
		if cur[0].blk == nil {
			continue
		}
		for m := b.obs & cur[0].blk.obs; m != 0; m &= m - 1 {
			bit := bits.TrailingZeros64(m)
			n := 0
			for ; n < len(feats) && cur[n].blk != nil && cur[n].blk.obs&(1<<bit) != 0; n++ {
				rels[n] = db.series[feats[n]].relOf(cur[n].blk, bit)
			}
			fn(b.key<<6|int32(bit), s.relOf(b, bit), rels[:n])
		}
	}
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

// CoObserved invokes fn for every slot in which both roads have a sample,
// in increasing slot order. The HLM fits its pairwise regressions and
// scores seed candidates from it; the correlation graph reads only
// CoCounts.
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

// SlotRanks numbers the distinct slots a database holds, 0 for the lowest.
// Per-slot tables indexed by it stay as small as the history, wherever below
// 2³¹ its slots sit. It keeps one entry per 64-slot window any road holds,
// not one per sample: Road computes a road's numbers on demand.
type SlotRanks struct {
	db       *DB
	numSlots int
	keys     []int32  // the windows any road holds, ascending
	held     []uint64 // held[j] is the set of slots held in window keys[j]
	first    []int32  // first[j] counts the distinct slots in windows before keys[j]
}

// NumSlots returns the number of distinct slots.
func (sr *SlotRanks) NumSlots() int { return sr.numSlots }

// Road writes the slot numbers of the road's samples, in the order of Rels,
// to buf and returns it, grown if it was too short.
func (sr *SlotRanks) Road(road roadnet.RoadID, buf []int32) []int32 {
	s := &sr.db.series[road]
	buf = slices.Grow(buf[:0], len(s.rel))
	lo := 0
	for _, b := range s.blocks {
		// Each road's blocks are ascending, so each search resumes where the
		// previous one ended.
		i, _ := slices.BinarySearch(sr.keys[lo:], b.key)
		lo += i
		for m := b.obs; m != 0; m &= m - 1 {
			below := uint64(1)<<bits.TrailingZeros64(m) - 1
			buf = append(buf, sr.first[lo]+int32(bits.OnesCount64(sr.held[lo]&below)))
		}
	}
	return buf
}

// SlotRanks ORs every road's blocks into the set of distinct slots, so a
// sample's number is the count of that set's slots below its own.
func (db *DB) SlotRanks() *SlotRanks {
	var numBlocks int
	for _, s := range db.series {
		numBlocks += len(s.blocks)
	}
	keys := make([]int32, 0, numBlocks)
	for _, s := range db.series {
		for _, b := range s.blocks {
			keys = append(keys, b.key)
		}
	}
	slices.Sort(keys)
	keys = slices.Clone(slices.Compact(keys))
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
	return &SlotRanks{db: db, numSlots: int(numSlots), keys: keys, held: held, first: first}
}

// Builder accumulates observations and produces a DB. It has one owner: it
// takes no lock, so its methods must not run concurrently. Every caller
// feeds it from one goroutine — a dataset build, a model rebuild folding in
// the buffered crowd reports, a corpus generator.
//
// A Builder made by NewBuilderFrom is a *roll-forward* builder: it carries
// its base DB and logs only the new observations. Finalize recovers a
// touched road's base samples just before it finalises that road, into one
// buffer it reuses road after road, so a rebuild holds no copy of the
// history beside the base. Roads never touched are not recomputed —
// Finalize shares their profile cells and series with the base — and the
// touched roads are exposed through Dirty, so a downstream consumer
// (incremental HLM retraining) can work on the delta instead of the whole
// city.
type Builder struct {
	cal      *timeslot.Calendar
	numRoads int

	// log[road] lists the road's new observations in arrival order;
	// Finalize sorts it by slot and sums each slot's speeds in that order.
	// An empty log means the road received none, which in a roll-forward
	// builder means its base data is reused verbatim.
	log [][]observation
	// base is the DB this builder rolls forward, nil for fresh builders.
	base *DB
	// dirty[road] marks a road with new observations since base. Only
	// tracked when base != nil.
	dirty []bool
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
// not fit the database encoding, and speeds that are not positive or do not
// fit the database's float32 profiles (above math.MaxFloat32, non-finite)
// are rejected with an error matching ErrInvalidObservation.
func (b *Builder) Add(road roadnet.RoadID, slot int, speed float64) error {
	if int(road) < 0 || int(road) >= b.numRoads {
		return fmt.Errorf("history: road %d out of range [0,%d): %w", road, b.numRoads, ErrInvalidObservation)
	}
	if slot < 0 || slot > math.MaxInt32 {
		return fmt.Errorf("history: slot %d outside [0, 2^31): %w", slot, ErrInvalidObservation)
	}
	if !(speed > 0 && speed <= math.MaxFloat32) {
		return fmt.Errorf("history: invalid speed %v for road %d: %w", speed, road, ErrInvalidObservation)
	}
	b.log[road] = append(b.log[road], observation{slot: int32(slot), v: speed})
	if b.dirty != nil {
		b.dirty[road] = true
	}
	return nil
}

// Grow makes room in the road's log for n more observations, so the next n
// Adds to the road do not reallocate it. The road must be in range.
func (b *Builder) Grow(road roadnet.RoadID, n int) {
	b.log[road] = slices.Grow(b.log[road], n)
}

// Finalize computes profiles and relative-speed series and returns the
// immutable DB. The Builder must not be used afterwards, except for Dirty.
//
// A roll-forward builder recomputes only the roads that received new
// observations; every clean road's profile cells and series are shared with
// the base DB (both are immutable), so finalisation cost is proportional to
// the delta, not the city. What it allocates is what the new DB holds —
// the touched roads' cells and series and a header per road — plus one
// scratch log it recovers each touched road into in turn.
func (b *Builder) Finalize() *DB {
	spw := b.cal.NumProfileClasses()
	db := &DB{
		cal:      b.cal,
		numRoads: b.numRoads,
		profile:  make([][]profileCell, b.numRoads),
		overall:  make([]float32, b.numRoads),
		series:   make([]roadSeries, b.numRoads),
	}
	var scratch []observation // a touched road's recovered samples and arrivals
	classSum := make([]float64, spw)
	classN := make([]uint32, spw)
	for road, log := range b.log {
		if len(log) == 0 && b.base != nil {
			// Untouched roll-forward road: per-road statistics depend only
			// on the road's own observations, so it finalises to exactly
			// its base values, which are shared verbatim.
			db.profile[road] = b.base.profile[road]
			db.overall[road] = b.base.overall[road]
			db.series[road] = b.base.series[road]
			continue
		}
		db.profile[road] = make([]profileCell, spw)
		if len(log) == 0 {
			continue
		}
		b.log[road] = nil // the log is consumed below; let it be collected
		// Slot-level means: a stable sort keeps each slot's observations in
		// arrival order, and they are summed in that order, after the
		// slot's recovered base mean in a roll-forward.
		if !slices.IsSortedFunc(log, bySlot) {
			slices.SortStableFunc(log, bySlot)
		}
		if b.base != nil {
			scratch = recoverRoad(scratch[:0], b.base, roadnet.RoadID(road), log)
			log = scratch
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

		// Per-class means and the road-overall mean.
		var overallSum float64
		for _, s := range means {
			classSum[s.class] += s.v
			classN[s.class]++
			overallSum += s.v
		}
		db.overall[road] = float32(overallSum / float64(len(means)))
		cells := db.profile[road]
		for cls, n := range classN {
			if n == 0 {
				continue
			}
			cells[cls] = profileCell{mean: float32(classSum[cls] / float64(n)), n: saturate16(n)}
		}
		clear(classSum)
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
			if rel >= 1 && cell.nUp < math.MaxUint16 {
				cell.nUp++
			}
		}
		db.series[road] = series
	}

	b.log = nil
	return db
}

// Dirty returns the roads with new observations since the base DB,
// ascending, or nil when the builder was not created by NewBuilderFrom: a
// fresh builder has no base to diff against, so nil means "no delta
// information", not "no changes". It reflects the observations added so far
// and remains valid after Finalize.
//
// The road is the unit of the delta: one changed (road, slot) aggregate
// shifts the road's per-class means, which rescales its whole relative
// series, so downstream retraining works on roads, not slots.
func (b *Builder) Dirty() []roadnet.RoadID {
	if b.dirty == nil {
		return nil
	}
	roads := []roadnet.RoadID{}
	for road, d := range b.dirty {
		if d {
			roads = append(roads, roadnet.RoadID(road))
		}
	}
	return roads
}

// recoverRoad appends to dst the road's samples in db, each as one
// observation at its recorded mean speed (see NewBuilderFrom for why that
// reconstruction is sound), merged in slot order with arrivals, which must
// be sorted by slot. A slot's recovered sample comes before its arrivals,
// and the arrivals keep their order.
func recoverRoad(dst []observation, db *DB, road roadnet.RoadID, arrivals []observation) []observation {
	dst = slices.Grow(dst, len(db.Rels(road))+len(arrivals))
	i := 0
	db.EachSample(road, func(slot int32, rel float32) {
		for ; i < len(arrivals) && arrivals[i].slot < slot; i++ {
			dst = append(dst, arrivals[i])
		}
		mean, ok := db.Mean(road, int(slot))
		if !ok || mean <= 0 {
			return
		}
		speed := float64(rel) * mean
		if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
			return
		}
		dst = append(dst, observation{slot: slot, v: speed})
	})
	return append(dst, arrivals[i:]...)
}

// NewBuilderFrom returns a roll-forward Builder over an existing database,
// so new observations can be appended and the database re-finalised — the
// rolling update a continuously running deployment performs on every model
// rebuild. Construction is O(roads) regardless of history size, and Add
// logs only the new observations. Finalize recovers a touched road's
// aggregates from the base just before finalising it, by replaying each
// stored slot-level sample as one observation at its recorded mean speed.
// Profiles recomputed over the union of recovered and new data match a
// from-scratch build over the combined observations (slot-level means are
// preserved exactly; per-slot observation counts inside a slot are not, and
// are not used by any consumer). Roads never touched are not recomputed at
// all: Finalize shares their profile cells and series with the base DB, and
// Dirty reports exactly the roads that received observations.
func NewBuilderFrom(db *DB) (*Builder, error) {
	b, err := NewBuilder(db.cal, db.numRoads)
	if err != nil {
		return nil, err
	}
	b.base = db
	b.dirty = make([]bool, db.numRoads)
	return b, nil
}
