package history

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/timeslot"
)

// refAdd is one observation replayed into the reference builder.
type refAdd struct {
	road  roadnet.RoadID
	slot  int32
	speed float64
}

// sample is one (slot, rel) pair of a road's series, as the tests read it.
type sample struct {
	slot int32
	rel  float32
}

// samplesOf lists the road's samples in the order EachSample calls with them.
func samplesOf(db *DB, road roadnet.RoadID) []sample {
	var out []sample
	db.EachSample(road, func(slot int32, rel float32) { out = append(out, sample{slot, rel}) })
	return out
}

// refDB is what refFinalize produces: a DB's profiles and overall means, and
// each road's series as a plain sample list.
type refDB struct {
	profile []profileCell
	overall []float32
	series  [][]sample
}

// refFinalize is the map-based builder the append log replaced, kept as the
// reference Finalize must match bit for bit: per-road maps of slot →
// (sum, count), roll-forward roads recovered from base before their first
// new observation, and per-class statistics accumulated in slot order.
func refFinalize(cal *timeslot.Calendar, numRoads int, base *DB, adds []refAdd) *refDB {
	type sumCount struct {
		sum float64
		n   uint32
	}
	agg := make([]map[int32]sumCount, numRoads)
	for _, a := range adds {
		if agg[a.road] == nil {
			agg[a.road] = make(map[int32]sumCount)
			if base != nil {
				for _, s := range samplesOf(base, a.road) {
					mean, ok := base.Mean(a.road, int(s.slot))
					if !ok || mean <= 0 {
						continue
					}
					speed := float64(s.rel) * mean
					if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
						continue
					}
					sc := agg[a.road][s.slot]
					sc.sum += speed
					sc.n++
					agg[a.road][s.slot] = sc
				}
			}
		}
		sc := agg[a.road][a.slot]
		sc.sum += a.speed
		sc.n++
		agg[a.road][a.slot] = sc
	}

	spw := cal.NumProfileClasses()
	db := &refDB{
		profile: make([]profileCell, numRoads*spw),
		overall: make([]float32, numRoads),
		series:  make([][]sample, numRoads),
	}
	type slotMean struct {
		slot int32
		v    float64
	}
	for road, cells := range agg {
		if len(cells) == 0 {
			continue
		}
		sm := make([]slotMean, 0, len(cells))
		for slot, sc := range cells {
			sm = append(sm, slotMean{slot: slot, v: sc.sum / float64(sc.n)})
		}
		sort.Slice(sm, func(i, j int) bool { return sm[i].slot < sm[j].slot })
		var overallSum float64
		classSum := make(map[int]float64)
		classSq := make(map[int]float64)
		classN := make(map[int]uint32)
		for _, s := range sm {
			cls := cal.ProfileClass(int(s.slot))
			classSum[cls] += s.v
			classSq[cls] += s.v * s.v
			classN[cls]++
			overallSum += s.v
		}
		db.overall[road] = float32(overallSum / float64(len(sm)))
		for cls, n := range classN {
			mean := classSum[cls] / float64(n)
			variance := classSq[cls]/float64(n) - mean*mean
			if variance < 0 {
				variance = 0
			}
			cell := &db.profile[road*spw+cls]
			cell.mean = float32(mean)
			cell.std = float32(math.Sqrt(variance))
			cell.n = n
		}
		var series []sample
		for _, s := range sm {
			cell := &db.profile[road*spw+cal.ProfileClass(int(s.slot))]
			mean := float64(cell.mean)
			if cell.n == 0 || mean <= 0 {
				mean = float64(db.overall[road])
			}
			if mean <= 0 {
				continue
			}
			rel := float32(s.v / mean)
			series = append(series, sample{slot: s.slot, rel: rel})
			if rel >= 1 {
				cell.nUp++
			}
		}
		db.series[road] = series
	}
	if base != nil {
		for road := 0; road < numRoads; road++ {
			if agg[road] != nil {
				continue
			}
			copy(db.profile[road*spw:(road+1)*spw], base.profile[road*spw:(road+1)*spw])
			db.overall[road] = base.overall[road]
			db.series[road] = samplesOf(base, roadnet.RoadID(road))
		}
	}
	return db
}

// refDirty is the delta Dirty must report for a roll-forward builder.
func refDirty(adds []refAdd) *Dirty {
	slots := map[roadnet.RoadID]map[int32]bool{}
	for _, a := range adds {
		if slots[a.road] == nil {
			slots[a.road] = map[int32]bool{}
		}
		slots[a.road][a.slot] = true
	}
	d := &Dirty{}
	for road := range slots {
		d.Roads = append(d.Roads, road)
	}
	sort.Slice(d.Roads, func(i, j int) bool { return d.Roads[i] < d.Roads[j] })
	for _, road := range d.Roads {
		var ss []int32
		for s := range slots[road] {
			ss = append(ss, s)
		}
		sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
		d.Slots = append(d.Slots, ss)
	}
	return d
}

// randomAdds draws observations over a few roads with slots repeating and
// arriving out of order, spread across weekday and weekend classes.
func randomAdds(rng *rand.Rand, cal *timeslot.Calendar, roads []roadnet.RoadID, count int) []refAdd {
	span := 2 * cal.SlotsPerWeek()
	size := 1 + rng.Intn(60)
	if rng.Intn(2) == 0 {
		size = 1 + rng.Intn(4) // many observations per slot
	}
	pool := make([]int32, size)
	for i := range pool {
		pool[i] = int32(rng.Intn(span))
	}
	adds := make([]refAdd, count)
	for i := range adds {
		adds[i] = refAdd{
			road:  roads[rng.Intn(len(roads))],
			slot:  pool[rng.Intn(len(pool))],
			speed: 0.5 + 30*rng.Float64(),
		}
	}
	return adds
}

// sameDB compares a database with the reference bit for bit.
func sameDB(t *testing.T, label string, got *DB, want *refDB) {
	t.Helper()
	for i := range want.profile {
		g, w := got.profile[i], want.profile[i]
		if math.Float32bits(g.mean) != math.Float32bits(w.mean) || math.Float32bits(g.std) != math.Float32bits(w.std) ||
			g.n != w.n || g.nUp != w.nUp {
			t.Fatalf("%s: profile cell %d is %+v, reference %+v", label, i, g, w)
		}
	}
	for r := range want.overall {
		if math.Float32bits(got.overall[r]) != math.Float32bits(want.overall[r]) {
			t.Fatalf("%s: road %d overall mean %v, reference %v", label, r, got.overall[r], want.overall[r])
		}
		gs, ws := samplesOf(got, roadnet.RoadID(r)), want.series[r]
		if len(gs) != len(ws) {
			t.Fatalf("%s: road %d has %d samples, reference %d", label, r, len(gs), len(ws))
		}
		for k := range ws {
			if gs[k].slot != ws[k].slot || math.Float32bits(gs[k].rel) != math.Float32bits(ws[k].rel) {
				t.Fatalf("%s: road %d sample %d is %+v, reference %+v", label, r, k, gs[k], ws[k])
			}
		}
	}
}

// TestFinalizeMatchesMapReference: random Add sequences, on fresh and on
// roll-forward builders, finalise bit-identically to the map-based
// reference, and a roll-forward builder's Dirty reports exactly the
// (road, slot) pairs it received.
func TestFinalizeMatchesMapReference(t *testing.T) {
	c := cal(t)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(6)
		roads := make([]roadnet.RoadID, n)
		for i := range roads {
			roads[i] = roadnet.RoadID(i)
		}
		adds := randomAdds(rng, c, roads, rng.Intn(400))
		b, err := NewBuilder(c, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range adds {
			if err := b.Add(a.road, int(a.slot), a.speed); err != nil {
				t.Fatal(err)
			}
		}
		if b.Dirty() != nil {
			t.Fatal("a fresh builder reported a delta")
		}
		base := b.Finalize()
		sameDB(t, "fresh", base, refFinalize(c, n, nil, adds))

		// Roll forward on a random subset of roads, twice in a row.
		for step := 0; step < 2; step++ {
			touched := roads[:1+rng.Intn(n)]
			rng.Shuffle(len(touched), func(i, j int) { touched[i], touched[j] = touched[j], touched[i] })
			delta := randomAdds(rng, c, touched, 1+rng.Intn(80))
			rb, err := NewBuilderFrom(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range delta {
				if err := rb.Add(a.road, int(a.slot), a.speed); err != nil {
					t.Fatal(err)
				}
			}
			next := rb.Finalize()
			sameDB(t, "roll-forward", next, refFinalize(c, n, base, delta))
			if got, want := rb.Dirty(), refDirty(delta); !reflect.DeepEqual(got, want) {
				t.Fatalf("Dirty = %+v, reference %+v", got, want)
			}
			base = next
		}
	}
}
