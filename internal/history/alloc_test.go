package history

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/roadnet"
)

// denseHistory builds two weeks of 10-minute history over numRoads roads,
// seven slots in ten observed on each road, some slots twice.
func denseHistory(t *testing.T, rng *rand.Rand, numRoads int) *DB {
	t.Helper()
	c := cal(t)
	b, err := NewBuilder(c, numRoads)
	if err != nil {
		t.Fatal(err)
	}
	for road := range numRoads {
		for slot := range 2 * c.SlotsPerWeek() {
			if rng.Float64() >= 0.7 {
				continue
			}
			for rep := 0; rep <= rng.Intn(2); rep++ {
				if err := b.Add(roadnet.RoadID(road), slot, 5+10*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return b.Finalize()
}

// allocated returns the bytes fn allocates on the heap. It runs on one P:
// ReadMemStats stops the world, and on a loaded machine restarting it can
// start an OS thread for an idle P, whose runtime structures (about 5 KB)
// the heap count would charge to fn.
func allocated(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRollForwardAllocatesWhatItCreates: a roll-forward whose delta touches
// every road must create every road's series and profile cells anew, and
// NewBuilderFrom, Add and Finalize together allocate at most a quarter more
// than those bytes. The rest is per-road headers, the delta's logs, the
// dirty-road marks, and one scratch log for recovering a road's base samples —
// not a recovered copy of every touched road's history.
func TestRollForwardAllocatesWhatItCreates(t *testing.T) {
	const numRoads = 40
	rng := rand.New(rand.NewSource(9))
	base := denseHistory(t, rng, numRoads)
	span := 2 * base.Cal().SlotsPerWeek()
	var delta []refAdd
	for road := range numRoads {
		for _, slot := range []int{rng.Intn(span), rng.Intn(span), span + rng.Intn(6)} {
			delta = append(delta, refAdd{road: roadnet.RoadID(road), slot: int32(slot), speed: 5 + 10*rng.Float64()})
		}
	}

	var next *DB
	got := allocated(func() {
		b, err := NewBuilderFrom(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range delta {
			if err := b.Add(a.road, int(a.slot), a.speed); err != nil {
				t.Fatal(err)
			}
		}
		next = b.Finalize()
	})
	need := uint64(numRoads*next.Cal().NumProfileClasses()) * uint64(unsafe.Sizeof(profileCell{}))
	for _, s := range next.series {
		need += uint64(len(s.rel))*uint64(unsafe.Sizeof(s.rel[0])) + uint64(len(s.blocks))*uint64(unsafe.Sizeof(s.blocks[0]))
	}
	t.Logf("roll-forward of %d observations over %d roads allocated %d B for %d B of new series and cells (%.2f×)",
		len(delta), numRoads, got, need, float64(got)/float64(need))
	if float64(got) > 1.25*float64(need) {
		t.Errorf("roll-forward allocated %d B, more than 1.25 × the %d B of series and cells it creates", got, need)
	}
}

// TestProfileCellsOneSizeClass: a profile cell is 8 bytes, so on the
// served 10-minute calendar Finalize gives each road's 288 cells one
// 2,304 B object, an exact size class. With 16-byte cells each road's
// 4,608 B rounded up to a 4,864 B object.
func TestProfileCellsOneSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(profileCell{}); got != 8 {
		t.Fatalf("a profile cell is %d bytes, want 8", got)
	}
	const numRoads, objSize = 50, 2304
	c := cal(t)
	if got := uintptr(c.NumProfileClasses()) * unsafe.Sizeof(profileCell{}); got != objSize {
		t.Fatalf("a road's cells take %d B, want %d", got, objSize)
	}
	b, err := NewBuilder(c, numRoads)
	if err != nil {
		t.Fatal(err)
	}
	for road := range roadnet.RoadID(numRoads) {
		if err := b.Add(road, int(road), 10); err != nil {
			t.Fatal(err)
		}
	}
	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for _, class := range ms.BySize {
			if class.Size == objSize {
				return class.Mallocs
			}
		}
		t.Fatalf("no %d B size class", objSize)
		return 0
	}
	before := mallocs()
	db := b.Finalize()
	got := mallocs() - before
	if got < numRoads {
		t.Errorf("Finalize made %d objects of %d B for %d roads' cells", got, objSize, numRoads)
	}
	for road, cells := range db.profile {
		if len(cells) != c.NumProfileClasses() || cap(cells) != len(cells) {
			t.Fatalf("road %d: %d cells in a slice of capacity %d", road, len(cells), cap(cells))
		}
	}
}

// TestSlotRanksAllocatesPerWindow: SlotRanks keeps tables per 64-slot
// window, not per sample, so on a dense history — about 45 samples a window
// — it allocates at most 16 B per road-window.
func TestSlotRanksAllocatesPerWindow(t *testing.T) {
	db := denseHistory(t, rand.New(rand.NewSource(4)), 40)
	var blocks, samples int
	for _, s := range db.series {
		blocks += len(s.blocks)
		samples += len(s.rel)
	}
	var sr *SlotRanks
	got := allocated(func() { sr = db.SlotRanks() })
	t.Logf("SlotRanks over %d samples in %d road-windows (%d distinct slots) allocated %d B",
		samples, blocks, sr.NumSlots(), got)
	if limit := 16 * uint64(blocks); got > limit {
		t.Errorf("SlotRanks allocated %d B for %d road-windows holding %d samples, over %d B", got, blocks, samples, limit)
	}
}

// TestGrowPresizesLog: after Grow(road, n) the next n Adds to the road
// allocate nothing, and the database finalises exactly as without Grow. In
// a roll-forward, a road grown but given no Add is still untouched: it
// shares its base series and cells, and Dirty leaves it out.
func TestGrowPresizesLog(t *testing.T) {
	const numRoads, adds = 6, 200
	rng := rand.New(rand.NewSource(4))
	base := denseHistory(t, rng, numRoads)
	span := 2 * base.Cal().SlotsPerWeek()
	var delta []refAdd
	for range adds {
		delta = append(delta, refAdd{road: 1, slot: int32(rng.Intn(span + 50)), speed: 5 + 10*rng.Float64()})
	}
	build := func(grow bool) (*DB, *Builder) {
		b, err := NewBuilderFrom(base)
		if err != nil {
			t.Fatal(err)
		}
		if grow {
			for road := range numRoads {
				b.Grow(roadnet.RoadID(road), adds)
			}
		}
		n := allocated(func() {
			for _, a := range delta {
				if err := b.Add(a.road, int(a.slot), a.speed); err != nil {
					t.Fatal(err)
				}
			}
		})
		if grow && n != 0 {
			t.Errorf("%d Adds after Grow allocated %d B", adds, n)
		}
		return b.Finalize(), b
	}
	grown, b := build(true)
	plain, _ := build(false)
	var got, want bytes.Buffer
	if _, err := grown.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("a grown builder finalised to a different database")
	}
	if dirty := b.Dirty(); !slices.Equal(dirty, []roadnet.RoadID{1}) {
		t.Errorf("Dirty = %v, want [1]", dirty)
	}
	for road := range numRoads {
		if road == 1 {
			continue
		}
		if &grown.series[road].rel[0] != &base.series[road].rel[0] || &grown.profile[road][0] != &base.profile[road][0] {
			t.Errorf("road %d, grown without an Add, does not share its base", road)
		}
	}
}
