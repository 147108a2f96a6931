package history

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/roadnet"
)

// mergeJoin is the per-sample merge join of two sorted series that the
// block index replaced, kept as CoObserved's reference: fn sees every slot
// both series hold, in increasing slot order.
func mergeJoin(a, b []sample, fn func(slot int32, relA, relB float32)) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].slot < b[j].slot:
			i++
		case a[i].slot > b[j].slot:
			j++
		default:
			fn(a[i].slot, a[i].rel, b[j].rel)
			i++
			j++
		}
	}
}

// refSlotRanks is the sort-based slot index SlotRanks replaced: every
// sample's slot sorted and deduplicated, and each sample ranked by a binary
// search among them.
func refSlotRanks(series [][]sample) (numSlots int, ranks [][]int32) {
	var slots []int32
	for _, s := range series {
		for _, x := range s {
			slots = append(slots, x.slot)
		}
	}
	slices.Sort(slots)
	slots = slices.Compact(slots)
	ranks = make([][]int32, len(series))
	for r, s := range series {
		for _, x := range s {
			i, _ := slices.BinarySearch(slots, x.slot)
			ranks[r] = append(ranks[r], int32(i))
		}
	}
	return len(slots), ranks
}

// relAtScan is RelAt's reference: a linear scan of the series.
func relAtScan(s []sample, slot int32) (float32, bool) {
	for _, x := range s {
		if x.slot == slot {
			return x.rel, true
		}
	}
	return 0, false
}

// coCall is one CoObserved callback, rels by their bits.
type coCall struct {
	slot       int32
	relU, relV uint32
}

// checkCoObserved checks CoObserved and CoCounts for one pair of roads
// against the merge join of their reference series.
func checkCoObserved(t *testing.T, label string, db *DB, u, v roadnet.RoadID, refU, refV []sample) {
	t.Helper()
	var got, want []coCall
	var agree int
	mergeJoin(refU, refV, func(slot int32, relU, relV float32) {
		want = append(want, coCall{slot, math.Float32bits(relU), math.Float32bits(relV)})
		if (relU >= 1) == (relV >= 1) {
			agree++
		}
	})
	db.CoObserved(u, v, func(slot int32, relU, relV float32) {
		got = append(got, coCall{slot, math.Float32bits(relU), math.Float32bits(relV)})
	})
	if !slices.Equal(got, want) {
		t.Fatalf("%s: CoObserved(%d, %d) calls %v, merge join %v", label, u, v, got, want)
	}
	if n, a := db.CoCounts(u, v); n != len(want) || a != agree {
		t.Fatalf("%s: CoCounts(%d, %d) = %d, %d; merge join %d, %d", label, u, v, n, a, len(want), agree)
	}
}

// checkBlockIndex checks every reader of db's block index against each
// road's reference series: EachSample, Rels, CoObserved and CoCounts for
// every ordered pair, RelAt at each probe slot, and SlotRanks.
func checkBlockIndex(t *testing.T, label string, db *DB, ref [][]sample, probes []int32) {
	t.Helper()
	if db.NumRoads() != len(ref) {
		t.Fatalf("%s: %d roads, reference %d", label, db.NumRoads(), len(ref))
	}
	for r := range ref {
		id := roadnet.RoadID(r)
		if got := samplesOf(db, id); !slices.Equal(got, ref[r]) {
			t.Fatalf("%s: road %d EachSample %v, reference %v", label, r, got, ref[r])
		}
		if got := db.Rels(id); len(got) != len(ref[r]) {
			t.Fatalf("%s: road %d has %d rels, reference %d", label, r, len(got), len(ref[r]))
		}
		for v := range ref {
			checkCoObserved(t, label, db, id, roadnet.RoadID(v), ref[r], ref[v])
		}
		for _, slot := range probes {
			got, ok := db.RelAt(id, slot)
			want, wantOK := relAtScan(ref[r], slot)
			if ok != wantOK || math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s: road %d RelAt(%d) = %v, %v; scan %v, %v", label, r, slot, got, ok, want, wantOK)
			}
		}
	}
	numSlots, ranks := refSlotRanks(ref)
	sr := db.SlotRanks()
	if sr.NumSlots() != numSlots {
		t.Fatalf("%s: SlotRanks holds %d slots, reference %d", label, sr.NumSlots(), numSlots)
	}
	for r := range ref {
		if got := sr.Road(roadnet.RoadID(r)); !slices.Equal(got, ranks[r]) {
			t.Fatalf("%s: road %d slot ranks %v, reference %v", label, r, got, ranks[r])
		}
	}
}

// edgeSlots are slots on both sides of block edges and at the ends of the
// slot range.
var edgeSlots = []int32{0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 191, 192, 255, 256,
	math.MaxInt32 - 64, math.MaxInt32 - 63, math.MaxInt32 - 1, math.MaxInt32}

// randomSlots draws a road's slots in one of several shapes: none, one,
// clustered around block edges, dense in a short range, or sparse up to
// 2³¹−1.
func randomSlots(rng *rand.Rand) []int32 {
	var out []int32
	switch rng.Intn(5) {
	case 0:
	case 1:
		out = append(out, edgeSlots[rng.Intn(len(edgeSlots))])
	case 2:
		for i := 0; i < 12; i++ {
			out = append(out, edgeSlots[rng.Intn(len(edgeSlots))])
		}
	case 3:
		for i := 0; i < 80; i++ {
			out = append(out, int32(rng.Intn(400)))
		}
	default:
		for i := 0; i < 20; i++ {
			out = append(out, int32(rng.Int63n(math.MaxInt32+1)))
		}
	}
	return out
}

// addSlots adds one or two observations at each slot and returns the slots
// sorted and deduplicated.
func addSlots(t *testing.T, rng *rand.Rand, b *Builder, road roadnet.RoadID, slots []int32) []int32 {
	t.Helper()
	for _, s := range slots {
		for rep := 0; rep <= rng.Intn(2); rep++ {
			if err := b.Add(road, int(s), 0.5+30*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := slices.Clone(slots)
	slices.Sort(out)
	return slices.Compact(out)
}

// zipSeries pairs each road's expected slots with its rel column, so the
// reference takes its slots from the builder's input, not from the index.
func zipSeries(t *testing.T, db *DB, slots [][]int32) [][]sample {
	t.Helper()
	ref := make([][]sample, len(slots))
	for r, ss := range slots {
		rels := db.Rels(roadnet.RoadID(r))
		if len(rels) != len(ss) {
			t.Fatalf("road %d holds %d rels for %d distinct slots", r, len(rels), len(ss))
		}
		for k, s := range ss {
			ref[r] = append(ref[r], sample{s, rels[k]})
		}
	}
	return ref
}

// probeSlots returns every slot any road holds, its neighbours, the edge
// slots and a few slots no road can hold.
func probeSlots(ref [][]sample) []int32 {
	probes := append([]int32{-1, -64, math.MinInt32}, edgeSlots...)
	for _, s := range ref {
		for _, x := range s {
			probes = append(probes, x.slot, x.slot-1, x.slot+1) // MaxInt32+1 wraps to a negative probe
		}
	}
	return probes
}

// TestCoObservedMatchesMergeJoin checks the block index against per-sample
// references on random histories built through Builder — slots on both
// sides of block edges, sparse slots up to 2³¹−1, empty and one-sample
// roads — as finalised, after Restrict, and after a roll-forward Finalize.
func TestCoObservedMatchesMergeJoin(t *testing.T) {
	c := cal(t)
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(6)
		b, err := NewBuilder(c, n)
		if err != nil {
			t.Fatal(err)
		}
		slots := make([][]int32, n)
		for r := range slots {
			slots[r] = addSlots(t, rng, b, roadnet.RoadID(r), randomSlots(rng))
		}
		db := b.Finalize()
		ref := zipSeries(t, db, slots)
		checkBlockIndex(t, "finalized", db, ref, probeSlots(ref))

		perm := rng.Perm(n)[:1+rng.Intn(n)]
		roads := make([]roadnet.RoadID, len(perm))
		sub := make([][]sample, len(perm))
		for i, r := range perm {
			roads[i], sub[i] = roadnet.RoadID(r), ref[r]
		}
		restricted, err := db.Restrict(roads)
		if err != nil {
			t.Fatal(err)
		}
		checkBlockIndex(t, "restricted", restricted, sub, probeSlots(sub))

		rb, err := NewBuilderFrom(db)
		if err != nil {
			t.Fatal(err)
		}
		rolledSlots := slices.Clone(slots)
		for r := range rolledSlots {
			if rng.Intn(2) == 0 {
				continue
			}
			added := addSlots(t, rng, rb, roadnet.RoadID(r), randomSlots(rng))
			merged := append(slices.Clone(slots[r]), added...)
			slices.Sort(merged)
			rolledSlots[r] = slices.Compact(merged)
		}
		rolled := rb.Finalize()
		rolledRef := zipSeries(t, rolled, rolledSlots)
		checkBlockIndex(t, "rolled forward", rolled, rolledRef, probeSlots(rolledRef))
	}
}
