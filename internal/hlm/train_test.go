package hlm

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/corr"
	"repro/internal/history"
	"repro/internal/roadnet"
	"repro/internal/timeslot"
)

// TestTrainAllocs guards training against per-sample allocations: Train on
// the golden city with its five pooling levels allocates per road and per
// regression, never per history sample (about 380 samples per road here).
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
	if perRoad > 256 {
		t.Errorf("Train allocates %.1f times per road, limit 256", perRoad)
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
