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

var updateGolden = flag.String("update-golden", "",
	"re-record the named comma-separated keys of testdata/train_golden.json (e.g. specialize) from the current code; every other key must still match")

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
	// Rescored is corr.Build over the rolled history, the graph Retrain fits
	// on; its key keeps its recorded name, so the fixture stays as it is.
	RolledSamples int      `json:"rolled_samples"`
	RolledDB      string   `json:"rolled_db"`
	RolledSeries  []string `json:"rolled_series"`
	Dirty         string   `json:"dirty"`
	Rescored      []string `json:"rescored"`
	Retrain       []string `json:"retrain"`

	// Specialize is the seed-conditional model over every tenth road.
	Specialize []string `json:"specialize"`

	servedGolden
}

// servedGolden is TestTrainGoldenServedCity's share of the fixture: the
// served city's history DB codec digest and every road's trained numbers.
type servedGolden struct {
	ServedRoads   int      `json:"served_roads"`
	ServedSamples int      `json:"served_samples"`
	ServedDB      string   `json:"served_db"`
	ServedTrain   []string `json:"served_train"`
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
		hc := Config{}
		hc.Levels = PoolingLevels(d.Net)
		goldenData, goldenGraph, goldenCfg = d, g, hc
	})
	return goldenData, goldenGraph, goldenCfg
}

var (
	servedOnce  sync.Once
	servedData  *dataset.Dataset
	servedGraph *corr.Graph
)

// servedCity builds the city speedserver serves, dataset.DefaultConfig()
// (884 roads, 14 days of history), with its default correlation graph, and
// returns a training config carrying the served pooling levels
// (PoolingLevels).
func servedCity(t testing.TB) (*dataset.Dataset, *corr.Graph, Config) {
	t.Helper()
	servedOnce.Do(func() {
		d, err := dataset.Build(dataset.DefaultConfig())
		if err != nil {
			panic(err)
		}
		g, err := corr.Build(d.Net, d.DB, corr.DefaultConfig())
		if err != nil {
			panic(err)
		}
		servedData, servedGraph = d, g
	})
	return servedData, servedGraph, Config{Levels: PoolingLevels(servedData.Net)}
}

// goldenDelta rolls the history forward with a delta that exercises every
// builder path: repeated observations of a stored slot, duplicate new
// slots, and new slots arriving out of order, on a few roads.
func goldenDelta(t testing.TB, db *history.DB) (*history.DB, []roadnet.RoadID) {
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

// reg dumps one regression, or "nil" for an unfitted one.
func (d *goldenDump) reg(label string, m *refModel) {
	if m == nil {
		d.i(label+" nil", 1)
		return
	}
	d.f(label+" intercept", m.intercept)
	d.i(label+" p", len(m.coef))
	for j, c := range m.coef {
		d.f(fmt.Sprintf("%s coef%d", label, j), c)
	}
	d.f(label+" rmse", m.rmse)
	d.i(label+" n", m.n)
}

// trio dumps a trio's classes, an unfitted class as nil.
func (d *goldenDump) trio(label string, pm *trio[*refModel]) {
	d.reg(label+"up", pm.up)
	d.reg(label+"down", pm.down)
	d.reg(label+"pooled", pm.pooled)
}

// pair dumps a one-feature trio in the recorded format: an unfitted trio as
// one nil line, and each fitted class as the one-feature regression it is.
func (d *goldenDump) pair(label string, pm *trio[linalg.Line]) {
	if !pm.fitted() {
		d.i(label+" nil", 1)
		return
	}
	d.trio(label+" ", lineTrio(pm))
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
			d.i(fmt.Sprintf("edge%d n", k), int(e.N))
		}
	})
}

func modelDumps(m *Model) []string {
	return roadDumps(m.NumRoads(), func(d *goldenDump, r int) {
		rm := &m.roads[r]
		d.f("exp up", rm.expRelUp)
		d.f("exp down", rm.expRelDown)
		d.f("exp all", rm.expRelAll)
		for k, nb := range rm.neighbors {
			d.i(fmt.Sprintf("pair%d neighbor", k), int(nb))
			d.pair(fmt.Sprintf("pair%d", k), &rm.pairs[k])
		}
		d.i("levels", len(rm.levelPairs))
		for l := range rm.levelPairs {
			d.pair(fmt.Sprintf("level%d", l), &rm.levelPairs[l])
		}
	})
}

func seedModelDumps(sm *SeedModel) []string {
	return roadDumps(len(sm.roads), func(d *goldenDump, r int) {
		srm := &sm.roads[r]
		for k, f := range srm.feats[:srm.k] {
			d.i(fmt.Sprintf("feat%d", k), int(f))
			d.f(fmt.Sprintf("feat%d impute", k), srm.impute[k])
		}
		d.trio("", fitTrio(&srm.trio, srm.k))
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

func dirtyDump(dirty []roadnet.RoadID) string {
	var d goldenDump
	for _, r := range dirty {
		d.i("road", int(r))
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
	db2, dirty := goldenDelta(t, d.DB)
	if len(dirty) == 0 {
		t.Fatal("the delta dirtied no road")
	}
	g2, err := corr.Build(d.Net, db2, corr.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, n)
	for _, r := range dirty {
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
	sm, err := m.Specialize(d.DB, seeds, nearestSeeds(seeds))
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
		Dirty:         digest(dirtyDump(dirty)),
		Rescored:      digests("rescored"),
		Retrain:       digests("retrain"),
		Specialize:    digests("specialize"),
	}, dumps
}

// readGolden loads the recorded fixture.
func readGolden(t *testing.T) trainGolden {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g trainGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// jsonFields returns v's JSON object, field by field.
func jsonFields(t *testing.T, v any) map[string]json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	return fields
}

// goldenUpdates returns the keys -update-golden names, nil when it names
// none, and fails t on a name that is no key of the fixture.
func goldenUpdates(t *testing.T) map[string]bool {
	t.Helper()
	if *updateGolden == "" {
		return nil
	}
	known := jsonFields(t, trainGolden{})
	names := map[string]bool{}
	for _, key := range strings.Split(*updateGolden, ",") {
		key = strings.TrimSpace(key)
		if _, ok := known[key]; !ok {
			t.Fatalf("-update-golden: %q is no key of %s", key, goldenPath)
		}
		names[key] = true
	}
	return names
}

// rerecordGolden writes the live values of the keys in names among live's
// keys, the ones this test records, into the fixture. Every other key of
// live must equal the fixture's, or it fails without writing: a run
// re-records only what it is told to. The file keeps its committed layout.
func rerecordGolden(t *testing.T, live map[string]json.RawMessage, names map[string]bool) {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var fixture map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fixture); err != nil {
		t.Fatal(err)
	}
	var moved, written []string
	for key, v := range live {
		switch {
		case names[key]:
			fixture[key] = v
			written = append(written, key)
		case !sameJSON(t, v, fixture[key]):
			moved = append(moved, key)
		}
	}
	if len(moved) > 0 {
		sort.Strings(moved)
		t.Fatalf("-update-golden: %s moved but not named; nothing written", strings.Join(moved, ", "))
	}
	if len(written) == 0 {
		return
	}
	merged, err := json.Marshal(fixture)
	if err != nil {
		t.Fatal(err)
	}
	var g trainGolden
	dec := json.NewDecoder(bytes.NewReader(merged))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	sort.Strings(written)
	t.Logf("re-recorded %s in %s", strings.Join(written, ", "), goldenPath)
}

// sameJSON reports whether two JSON values are the same bytes once
// compacted; a missing value is never the same.
func sameJSON(t *testing.T, a, b json.RawMessage) bool {
	t.Helper()
	if a == nil || b == nil {
		return false
	}
	var ca, cb bytes.Buffer
	if err := json.Compact(&ca, a); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&cb, b); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// compareDigests reports every road whose digest differs from the fixture,
// printing the first one's live dump.
func compareDigests(t *testing.T, key string, got, want, dumps []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d roads, recorded %d", key, len(got), len(want))
		return
	}
	bad := 0
	for r := range got {
		if got[r] == want[r] {
			continue
		}
		if bad == 0 {
			t.Errorf("%s road %d: digest %s, recorded %s; live dump:\n%s", key, r, got[r], want[r], dumps[r])
		}
		bad++
	}
	if bad > 0 {
		t.Errorf("%s: %d of %d roads differ from the fixture", key, bad, len(got))
	}
}

// TestTrainGolden pins the offline phase bit for bit against a fixture
// recorded before training moved to flat arrays: the history DB, the
// correlation graph, Train, one Retrain over a roll-forward delta, and one
// Specialize. Re-record only an intended change of the trained numbers,
// and only the keys it moves: -update-golden=specialize rewrites that key
// and fails without writing if any other key moved. The one-pass trio fits
// re-recorded the model digests once TestTrainTriosMatchThreePass and its
// served-city twin held every fit within lineTol of the three-pass fits the
// fixture recorded; the aligned walk and the p-feature sums re-recorded
// specialize once TestSpecializeMatchesReference and its served-city twin
// held every seed model to the three-pass reference the same way.
func TestTrainGolden(t *testing.T) {
	got, dumps := recordGolden(t)
	if names := goldenUpdates(t); names != nil {
		live := jsonFields(t, got)
		for key := range jsonFields(t, servedGolden{}) {
			delete(live, key) // TestTrainGoldenServedCity's
		}
		rerecordGolden(t, live, names)
		return
	}
	want := readGolden(t)
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
		compareDigests(t, s.key, s.got, s.want, dumps[s.key])
	}
}

// TestTrainGoldenServedCity pins the city speedserver builds and the bench
// scores: dataset.DefaultConfig() (884 roads, 14 days of history), its
// history DB and every road's trained numbers under the default correlation
// and HLM configs with the served pooling levels. It takes about a second, ten
// times that under the race detector, so it is skipped there; CI runs it in
// a non-race step.
func TestTrainGoldenServedCity(t *testing.T) {
	if raceEnabled {
		t.Skip("slow under the race detector; CI runs it without -race")
	}
	d, g, cfg := servedCity(t)
	m, err := Train(g, d.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dumps := modelDumps(m)
	got := servedGolden{
		ServedRoads:   d.Net.NumRoads(),
		ServedSamples: d.DB.ObservationCount(),
		ServedDB:      dbDigest(t, d.DB),
		ServedTrain:   make([]string, len(dumps)),
	}
	for r, s := range dumps {
		got.ServedTrain[r] = digest(s)
	}
	if names := goldenUpdates(t); names != nil {
		rerecordGolden(t, jsonFields(t, got), names)
		return
	}
	want := readGolden(t)
	if got.ServedRoads != want.ServedRoads || got.ServedSamples != want.ServedSamples {
		t.Fatalf("served city drifted: %d roads, %d samples; recorded %d roads, %d samples",
			got.ServedRoads, got.ServedSamples, want.ServedRoads, want.ServedSamples)
	}
	if got.ServedDB != want.ServedDB {
		t.Errorf("history DB digest %s, recorded %s", got.ServedDB, want.ServedDB)
	}
	compareDigests(t, "served_train", got.ServedTrain, want.ServedTrain, dumps)
}
