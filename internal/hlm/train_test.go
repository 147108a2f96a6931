package hlm

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/corr"
	"repro/internal/history"
	"repro/internal/linalg"
	"repro/internal/roadnet"
	"repro/internal/timeslot"
)

// TestTrainAllocs guards training against per-sample and per-regression
// allocations: Train on the golden city with its five pooling levels
// allocates a few times per road — its neighbour, pair and level slices —
// never per regression (up to 30 per road) or per history sample (about 380
// per road here).
func TestTrainAllocs(t *testing.T) {
	d, g, cfg := goldenCity(t)
	n := d.Net.NumRoads()
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Train(g, d.DB, cfg); err != nil {
			t.Fatal(err)
		}
	})
	perRoad := allocs / float64(n)
	t.Logf("Train: %.0f allocations, %.1f per road", allocs, perRoad)
	if perRoad > 6 {
		t.Errorf("Train allocates %.1f times per road, limit 6", perRoad)
	}
}

// TestPairTrioInlineWithoutPointer: the generic model stores each pairwise
// and level predictor inline, as a trio of one-feature Lines that holds no
// pointer and takes at most 96 bytes, so the garbage collector never scans
// a road's regressions; every road's slices are exactly sized. A seed
// road's model, its feature seeds, imputed means and trio of Fits, holds
// no pointer either and takes at most 224 bytes.
func TestPairTrioInlineWithoutPointer(t *testing.T) {
	for _, c := range []struct {
		what string
		typ  reflect.Type
		size uintptr
	}{
		{"the generic pair trio", reflect.TypeFor[trio[linalg.Line]](), 96},
		{"a seed road's model", reflect.TypeFor[seedRoadModel](), 224},
	} {
		if path, ok := pointerIn(c.typ, c.typ.String()); ok {
			t.Errorf("%s holds a pointer at %s", c.what, path)
		}
		if c.typ.Size() > c.size {
			t.Errorf("%s is %d bytes, want at most %d", c.what, c.typ.Size(), c.size)
		}
	}
	d, g, cfg := goldenCity(t)
	m, err := Train(g, d.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for r := range m.roads {
		rm := &m.roads[r]
		if len(rm.pairs) != len(rm.neighbors) || cap(rm.pairs) != len(rm.pairs) || cap(rm.neighbors) != len(rm.neighbors) ||
			len(rm.levelPairs) != len(cfg.Levels) || cap(rm.levelPairs) != len(rm.levelPairs) {
			t.Fatalf("road %d: %d/%d neighbours, %d/%d pairs and %d/%d level trios (length/capacity) for %d levels",
				r, len(rm.neighbors), cap(rm.neighbors), len(rm.pairs), cap(rm.pairs), len(rm.levelPairs), cap(rm.levelPairs), len(cfg.Levels))
		}
		pairs += len(rm.pairs)
	}
	if pairs == 0 {
		t.Error("no road trained a pairwise regression; the test checks no trio")
	}
}

// pointerIn returns the path of the first pointer-holding field in typ.
func pointerIn(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p, ok := pointerIn(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
		return "", false
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface:
		return path + " (" + typ.Kind().String() + ")", true
	default:
		return "", false
	}
}

var trainSink *Model

// BenchmarkTrain times Train on the golden city with five pooling levels.
func BenchmarkTrain(b *testing.B) {
	d, g, cfg := goldenCity(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Train(g, d.DB, cfg)
		if err != nil {
			b.Fatal(err)
		}
		trainSink = m
	}
}

var seedModelSink *SeedModel

// BenchmarkSpecialize times Specialize on the golden city with every tenth
// road a seed, as TestTrainGolden specializes it: regressions of up to four
// features, which core fits at request time when the seed set changes.
func BenchmarkSpecialize(b *testing.B) {
	d, g, cfg := goldenCity(b)
	m, err := Train(g, d.DB, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var seeds []roadnet.RoadID
	for r := 0; r < m.NumRoads(); r += 10 {
		seeds = append(seeds, roadnet.RoadID(r))
	}
	candidates := nearestSeeds(seeds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm, err := m.Specialize(d.DB, seeds, candidates)
		if err != nil {
			b.Fatal(err)
		}
		seedModelSink = sm
	}
}

// TestTrainMemoryIndependentOfSlotRange: slots may sit anywhere below 2³¹,
// so the pooling aggregates must be sized by the slots the history holds,
// not by the slot range.
func TestTrainMemoryIndependentOfSlotRange(t *testing.T) {
	c := timeslot.MustCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), timeslot.DefaultSlotWidth)
	b, err := history.NewBuilder(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(0, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(1, math.MaxInt32, 10); err != nil {
		t.Fatal(err)
	}
	db := b.Finalize()
	g, err := corr.NewGraph(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	cfg.Levels = [][]int{{0, 0, 1, 1}, {0, 0, 0, 0}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Train(g, db, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("training a two-sample history allocated %d MB", grew>>20)
	}
}

// TestTrainGroupRelabelInvariant: pooling-level group IDs are labels, so any
// one-to-one relabelling — IDs at or above 2¹⁶, negative IDs, IDs that
// agree in their low 16 bits — trains a bit-identical model.
func TestTrainGroupRelabelInvariant(t *testing.T) {
	d, g, cfg := goldenCity(t)
	n := d.Net.NumRoads()
	halves := make([]int, n)
	for r := range halves {
		halves[r] = r % 2
	}
	base := cfg
	base.Levels = append([][]int{halves}, cfg.Levels...)
	want, err := Train(g, d.DB, base)
	if err != nil {
		t.Fatal(err)
	}
	wantDump := modelDumps(want)

	for _, relabel := range []struct {
		name string
		fn   func(g int) int
	}{
		{"0,1 as 0,65536", func(g int) int { return g << 16 }},
		{"negated", func(g int) int { return -1 - g }},
		{"low 16 bits shared", func(g int) int { return g<<16 | 0xffff }},
		{"negative beyond 2³²", func(g int) int { return -(g+1)<<33 | 7 }},
	} {
		rc := base
		rc.Levels = make([][]int, len(base.Levels))
		for l, groups := range base.Levels {
			rc.Levels[l] = make([]int, n)
			for r, grp := range groups {
				rc.Levels[l][r] = relabel.fn(grp)
			}
		}
		got, err := Train(g, d.DB, rc)
		if err != nil {
			t.Fatal(err)
		}
		for r, dump := range modelDumps(got) {
			if dump != wantDump[r] {
				t.Fatalf("%s: road %d trains differently after relabelling its groups", relabel.name, r)
			}
		}
	}
}
