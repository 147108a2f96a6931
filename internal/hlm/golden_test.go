package hlm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/corr"
	"repro/internal/dataset"
	"repro/internal/history"
	"repro/internal/linalg"
	"repro/internal/roadnet"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/train_golden.json from the current code")

const goldenPath = "testdata/train_golden.json"

// trainGolden is the recorded offline phase on the golden city: the
// finalized history, the correlation graph and every trained number, for a
// full build and for one roll-forward delta. Each road's share of a stage is
// stored as a digest of its canonical dump (goldenDump), which lists every
// float by its math.Float64bits; the fixture holding the numbers themselves
// would be larger than the rest of the repository.
type trainGolden struct {
	Roads   int `json:"roads"`
	Samples int `json:"samples"`
	// DB digests the history codec bytes: every profile cell, overall mean
	// and series sample, bit for bit. DBSeries localises a mismatch.
	DB       string   `json:"db"`
	DBSeries []string `json:"db_series"`
	Graph    []string `json:"graph"`
	Train    []string `json:"train"`

	// The roll-forward delta (goldenDelta) on top of the full build.
	RolledSamples int      `json:"rolled_samples"`
	RolledDB      string   `json:"rolled_db"`
	RolledSeries  []string `json:"rolled_series"`
	Dirty         string   `json:"dirty"`
	Rescored      []string `json:"rescored"`
	Retrain       []string `json:"retrain"`

	// Specialize is the seed-conditional model over every tenth road.
	Specialize []string `json:"specialize"`
}

var (
	goldenOnce  sync.Once
	goldenData  *dataset.Dataset
	goldenCfg   Config
	goldenGraph *corr.Graph
)

// goldenCity builds the 6×5-block, 4-day city (162 roads) with its
// correlation graph and a training config carrying the five default pooling
// levels.
func goldenCity(t testing.TB) (*dataset.Dataset, *corr.Graph, Config) {
	t.Helper()
	goldenOnce.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.Net.BlocksX, cfg.Net.BlocksY = 6, 5
		cfg.HistoryDays = 4
		d, err := dataset.Build(cfg)
		if err != nil {
			panic(err)
		}
		g, err := corr.Build(d.Net, d.DB, corr.DefaultConfig())
		if err != nil {
			panic(err)
		}
		hc := DefaultConfig()
		hc.Levels = defaultLevels(d.Net)
		goldenData, goldenGraph, goldenCfg = d, g, hc
	})
	return goldenData, goldenGraph, goldenCfg
}

// defaultLevels mirrors core's pooling levels: road class, the whole city,
// and spatial cells at three nested scales.
func defaultLevels(net *roadnet.Network) [][]int {
	n := net.NumRoads()
	class, city := make([]int, n), make([]int, n)
	levels := [][]int{class, city}
	bounds := net.Bounds()
	for _, cell := range []float64{600, 1200, 2400} {
		area := make([]int, n)
		cols := int(bounds.Width()/cell) + 1
		for r := 0; r < n; r++ {
			road := net.Road(roadnet.RoadID(r))
			mid := road.Geometry.At(road.Length() / 2)
			area[r] = int((mid.Y-bounds.Min.Y)/cell)*cols + int((mid.X-bounds.Min.X)/cell)
		}
		levels = append(levels, area)
	}
	for r := 0; r < n; r++ {
		class[r] = int(net.Road(roadnet.RoadID(r)).Class)
	}
	return levels
}

// goldenDelta rolls the history forward with a delta that exercises every
// builder path: repeated observations of a stored slot, duplicate new
// slots, and new slots arriving out of order, on a few roads.
func goldenDelta(t testing.TB, db *history.DB) (*history.DB, *history.Dirty) {
	t.Helper()
	b, err := history.NewBuilderFrom(db)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	end := int(db.Cal().SlotsPerDay()) * 4
	for _, r := range []roadnet.RoadID{3, 17, 29, 64, 101, 150} {
		slots := seriesSlots(db, r)
		if len(slots) == 0 {
			t.Fatalf("road %d has no history to perturb", r)
		}
		for k := 0; k < 12; k++ {
			slot := int(slots[rng.Intn(len(slots))])
			if k%3 == 2 {
				slot = end + 40 - 3*k // new slots, descending
			}
			mean, ok := db.Mean(r, slot)
			if !ok {
				t.Fatalf("road %d slot %d has no mean", r, slot)
			}
			for rep := 0; rep <= k%2; rep++ {
				if err := b.Add(r, slot, mean*(0.6+0.8*rng.Float64())); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rolled := b.Finalize()
	return rolled, b.Dirty()
}

// goldenDump writes labelled lines, one number each; floats as their bits.
type goldenDump struct{ strings.Builder }

func (d *goldenDump) f(label string, v float64) {
	fmt.Fprintf(d, "%s %016x\n", label, math.Float64bits(v))
}

func (d *goldenDump) i(label string, v int) { fmt.Fprintf(d, "%s %d\n", label, v) }

func (d *goldenDump) reg(label string, m *linalg.RidgeModel) {
	if m == nil {
		d.i(label+" nil", 1)
		return
	}
	d.f(label+" intercept", m.Intercept)
	d.i(label+" p", len(m.Coef))
	for j, c := range m.Coef {
		d.f(fmt.Sprintf("%s coef%d", label, j), c)
	}
	d.f(label+" rmse", m.RMSE)
	d.i(label+" n", m.N)
}

func (d *goldenDump) pair(label string, pm *pairModel) {
	if pm == nil {
		d.i(label+" nil", 1)
		return
	}
	d.reg(label+" up", pm.up)
	d.reg(label+" down", pm.down)
	d.reg(label+" pooled", pm.pooled)
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// roadDumps applies dump to every road and returns the dumps.
func roadDumps(n int, dump func(d *goldenDump, r int)) []string {
	out := make([]string, n)
	for r := range out {
		var d goldenDump
		dump(&d, r)
		out[r] = d.String()
	}
	return out
}

// seriesSlots lists the road's history slots in ascending order.
func seriesSlots(db *history.DB, r roadnet.RoadID) []int32 {
	var slots []int32
	db.EachSample(r, func(slot int32, _ float32) { slots = append(slots, slot) })
	return slots
}

func seriesDumps(db *history.DB) []string {
	return roadDumps(db.NumRoads(), func(d *goldenDump, r int) {
		k := 0
		db.EachSample(roadnet.RoadID(r), func(slot int32, rel float32) {
			d.i(fmt.Sprintf("sample%d slot", k), int(slot))
			d.f(fmt.Sprintf("sample%d rel", k), float64(rel))
			k++
		})
	})
}

func graphDumps(g *corr.Graph) []string {
	return roadDumps(g.NumRoads(), func(d *goldenDump, r int) {
		for k, e := range g.Neighbors(roadnet.RoadID(r)) {
			d.i(fmt.Sprintf("edge%d to", k), int(e.To))
			d.f(fmt.Sprintf("edge%d agreement", k), e.Agreement)
			d.f(fmt.Sprintf("edge%d relcorr", k), e.RelCorr)
			d.i(fmt.Sprintf("edge%d n", k), e.N)
		}
	})
}

func modelDumps(m *Model) []string {
	return roadDumps(m.NumRoads(), func(d *goldenDump, r int) {
		rm := &m.roads[r]
		d.f("exp up", rm.expRelUp)
		d.f("exp down", rm.expRelDown)
		d.f("exp all", rm.expRelAll)
		d.f("var up", rm.varUp)
		d.f("var down", rm.varDown)
		d.f("var all", rm.varAll)
		for k, nb := range rm.neighbors {
			d.i(fmt.Sprintf("pair%d neighbor", k), int(nb))
			d.pair(fmt.Sprintf("pair%d", k), &rm.pairs[k])
		}
		d.i("levels", len(rm.levelPairs))
		for l, pm := range rm.levelPairs {
			d.pair(fmt.Sprintf("level%d", l), pm)
		}
	})
}

func seedModelDumps(sm *SeedModel) []string {
	return roadDumps(len(sm.roads), func(d *goldenDump, r int) {
		srm := &sm.roads[r]
		for k, f := range srm.feats {
			d.i(fmt.Sprintf("feat%d", k), int(f))
			d.f(fmt.Sprintf("feat%d impute", k), srm.impute[k])
		}
		d.reg("up", srm.up)
		d.reg("down", srm.down)
		d.reg("pooled", srm.pooled)
	})
}

func dbDigest(t testing.TB, db *history.DB) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return digest(buf.String())
}

func dirtyDump(di *history.Dirty) string {
	var d goldenDump
	for i, r := range di.Roads {
		d.i("road", int(r))
		for _, s := range di.Slots[i] {
			d.i("slot", int(s))
		}
	}
	return d.String()
}

// nearestSeeds returns a candidate provider ranking seeds by ID distance.
func nearestSeeds(seeds []roadnet.RoadID) func(roadnet.RoadID) []roadnet.RoadID {
	return func(r roadnet.RoadID) []roadnet.RoadID {
		out := append([]roadnet.RoadID(nil), seeds...)
		dist := func(s roadnet.RoadID) int { return max(int(s-r), int(r-s)) }
		sort.SliceStable(out, func(i, j int) bool { return dist(out[i]) < dist(out[j]) })
		return out
	}
}

// recordGolden runs the offline phase on the golden city and returns the
// digests with the live dumps behind them, keyed by field name.
func recordGolden(t *testing.T) (trainGolden, map[string][]string) {
	d, g, cfg := goldenCity(t)
	n := d.Net.NumRoads()
	m, err := Train(g, d.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	db2, di := goldenDelta(t, d.DB)
	if di == nil || len(di.Roads) == 0 {
		t.Fatal("the delta dirtied no road")
	}
	g2, err := corr.Rescore(g, d.Net, db2, di.Roads, corr.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, n)
	for _, r := range di.Roads {
		mask[r] = true
	}
	m2, err := Retrain(m, g2, db2, mask)
	if err != nil {
		t.Fatal(err)
	}
	var seeds []roadnet.RoadID
	for r := 0; r < n; r += 10 {
		seeds = append(seeds, roadnet.RoadID(r))
	}
	sm, err := m.Specialize(d.DB, seeds, nearestSeeds(seeds), DefaultSpecializeConfig())
	if err != nil {
		t.Fatal(err)
	}

	dumps := map[string][]string{
		"db_series":     seriesDumps(d.DB),
		"graph":         graphDumps(g),
		"train":         modelDumps(m),
		"rolled_series": seriesDumps(db2),
		"rescored":      graphDumps(g2),
		"retrain":       modelDumps(m2),
		"specialize":    seedModelDumps(sm),
	}
	digests := func(key string) []string {
		out := make([]string, len(dumps[key]))
		for i, s := range dumps[key] {
			out[i] = digest(s)
		}
		return out
	}
	return trainGolden{
		Roads:         n,
		Samples:       d.DB.ObservationCount(),
		DB:            dbDigest(t, d.DB),
		DBSeries:      digests("db_series"),
		Graph:         digests("graph"),
		Train:         digests("train"),
		RolledSamples: db2.ObservationCount(),
		RolledDB:      dbDigest(t, db2),
		RolledSeries:  digests("rolled_series"),
		Dirty:         digest(dirtyDump(di)),
		Rescored:      digests("rescored"),
		Retrain:       digests("retrain"),
		Specialize:    digests("specialize"),
	}, dumps
}

// TestTrainGolden pins the offline phase bit for bit against a fixture
// recorded before training moved to flat arrays: the history DB, the
// correlation graph, Train, one Retrain over a roll-forward delta, and one
// Specialize. Regenerate with -update-golden only for an intended change of
// the trained numbers.
func TestTrainGolden(t *testing.T) {
	got, dumps := recordGolden(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want trainGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if got.Roads != want.Roads || got.Samples != want.Samples || got.RolledSamples != want.RolledSamples {
		t.Fatalf("golden city drifted: %d roads, %d/%d samples; recorded %d roads, %d/%d samples",
			got.Roads, got.Samples, got.RolledSamples, want.Roads, want.Samples, want.RolledSamples)
	}
	if got.DB != want.DB {
		t.Errorf("history DB digest %s, recorded %s", got.DB, want.DB)
	}
	if got.RolledDB != want.RolledDB {
		t.Errorf("rolled-forward history DB digest %s, recorded %s", got.RolledDB, want.RolledDB)
	}
	if got.Dirty != want.Dirty {
		t.Errorf("dirty set digest %s, recorded %s", got.Dirty, want.Dirty)
	}
	for _, s := range []struct {
		key       string
		got, want []string
	}{
		{"db_series", got.DBSeries, want.DBSeries},
		{"graph", got.Graph, want.Graph},
		{"train", got.Train, want.Train},
		{"rolled_series", got.RolledSeries, want.RolledSeries},
		{"rescored", got.Rescored, want.Rescored},
		{"retrain", got.Retrain, want.Retrain},
		{"specialize", got.Specialize, want.Specialize},
	} {
		if len(s.got) != len(s.want) {
			t.Errorf("%s: %d roads, recorded %d", s.key, len(s.got), len(s.want))
			continue
		}
		bad := 0
		for r := range s.got {
			if s.got[r] == s.want[r] {
				continue
			}
			if bad == 0 {
				t.Errorf("%s road %d: digest %s, recorded %s; live dump:\n%s", s.key, r, s.got[r], s.want[r], dumps[s.key][r])
			}
			bad++
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d roads differ from the fixture", s.key, bad, len(s.got))
		}
	}
}
