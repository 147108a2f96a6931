package core

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mrf"
	"repro/internal/roadnet"
	"repro/internal/seedsel"
)

// buildCity builds the default city at blocksX×blocksY blocks with four days
// of history. The golden and engine tests share the 6×5-block city, the store
// tests the 5×4 one, and the rebuild and allocation gates the 8×6 one.
func buildCity(t testing.TB, blocksX, blocksY int) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = blocksX, blocksY
	cfg.HistoryDays = 4
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// spreadSeeds picks every strideth road with its true speed, so the seeds
// cover the whole bounding box.
func spreadSeeds(d *dataset.Dataset, truth []float64, stride int) map[roadnet.RoadID]float64 {
	seeds := map[roadnet.RoadID]float64{}
	for r := 0; r < d.Net.NumRoads(); r += stride {
		seeds[roadnet.RoadID(r)] = truth[roadnet.RoadID(r)]
	}
	return seeds
}

// Serving bounds: how far a served variant's round (the residual BP schedule
// instead of Jacobi, an incremental instead of a full rebuild) may move any
// road's estimate from the reference round's: BP's convergence tolerance
// plus the variant's own approximation.
const (
	servingSpeedBound = 0.05 // m/s
	servingTrendBound = 0.01 // P(up)
)

// checkServingBounds fails t when any road's estimate in got is further from
// want's than the serving bounds allow.
func checkServingBounds(t *testing.T, got, want *Estimate) {
	t.Helper()
	var maxSpeed, maxPUp float64
	for r := range want.Speeds {
		maxSpeed = math.Max(maxSpeed, math.Abs(got.Speeds[r]-want.Speeds[r]))
		maxPUp = math.Max(maxPUp, math.Abs(got.PUp[r]-want.PUp[r]))
	}
	t.Logf("max |Δspeed| = %.3g m/s, max |ΔPUp| = %.3g", maxSpeed, maxPUp)
	if !(maxSpeed <= servingSpeedBound) {
		t.Errorf("max speed divergence %.4g m/s exceeds the %g m/s serving bound", maxSpeed, servingSpeedBound)
	}
	if !(maxPUp <= servingTrendBound) {
		t.Errorf("max trend-marginal divergence %.4g exceeds the %g serving bound", maxPUp, servingTrendBound)
	}
}

// goldenRound is one recorded estimation round of testdata/k1_golden.json.
type goldenRound struct {
	Speeds  []float64 `json:"speeds"`
	Rels    []float64 `json:"rels"`
	PUp     []float64 `json:"p_up"`
	TrendUp []bool    `json:"trend_up"`
}

const k1GoldenPath = "testdata/k1_golden.json"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+k1GoldenPath+" from the current code")

// writeK1Golden writes the fixture in its committed layout: the slot and
// seed count, then each round under its key with one line per field, each
// field's array on its line as encoding/json writes it.
func writeK1Golden(t *testing.T, slot, seeds int, keys []string, rounds []goldenRound) {
	t.Helper()
	comma := func(more bool) string {
		if more {
			return ","
		}
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "{\n\"slot\":%d,\n\"seeds\":%d,\n", slot, seeds)
	for i, r := range rounds {
		fmt.Fprintf(&b, "%q: {\n", keys[i])
		fields := []struct {
			key string
			v   any
		}{{"speeds", r.Speeds}, {"rels", r.Rels}, {"p_up", r.PUp}, {"trend_up", r.TrendUp}}
		for j, f := range fields {
			raw, err := json.Marshal(f.v)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "\t%q:%s%s\n", f.key, raw, comma(j < len(fields)-1))
		}
		fmt.Fprintf(&b, "}%s\n", comma(i < len(rounds)-1))
	}
	b.WriteString("}\n")
	if err := os.WriteFile(k1GoldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestViewK1Golden pins the estimation round bit for bit: a view must
// reproduce the recorded round on the 6×5-block city's first truth slot with
// spreadSeeds(…, 10), for the default (served) round, the same round on a
// view built with the Jacobi reference engine (Options.Engine) and the
// trend-free round. Every float is
// compared exactly: a change to the round's arithmetic must re-record the
// fixture on purpose, with -update-golden.
func TestViewK1Golden(t *testing.T) {
	d := buildCity(t, 6, 5)
	slot, truth := d.NextTruth()
	seeds := spreadSeeds(d, truth, 10)
	v, err := NewView(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	jacobi, err := mrf.NewJacobi(DefaultOptions().BP)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, key string
		view      *View
		opts      EstimateOptions
	}{
		{"default", "default", v, EstimateOptions{}},
		{"jacobi", "jacobi", viewWithEngine(t, d, jacobi), EstimateOptions{}},
		{"trend-free", "trend_free", v, EstimateOptions{TrendFree: true}},
	}
	keys := make([]string, len(cases))
	rounds := make([]goldenRound, len(cases))
	for i, tc := range cases {
		got, err := tc.view.EstimateWith(context.Background(), slot, seeds, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		keys[i], rounds[i] = tc.key, goldenRound{Speeds: got.Speeds, Rels: got.Rels, PUp: got.PUp, TrendUp: got.TrendUp}
	}
	if *updateGolden {
		writeK1Golden(t, slot, len(seeds), keys, rounds)
		return
	}

	raw, err := os.ReadFile(k1GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Slot      int         `json:"slot"`
		Seeds     int         `json:"seeds"`
		Default   goldenRound `json:"default"`
		Jacobi    goldenRound `json:"jacobi"`
		TrendFree goldenRound `json:"trend_free"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if slot != golden.Slot || len(seeds) != golden.Seeds {
		t.Fatalf("dataset drifted from the fixture: slot %d with %d seeds, recorded %d with %d", slot, len(seeds), golden.Slot, golden.Seeds)
	}
	for i, want := range []goldenRound{golden.Default, golden.Jacobi, golden.TrendFree} {
		name, got := cases[i].name, rounds[i]
		if len(got.Speeds) != len(want.Speeds) {
			t.Fatalf("%s: %d roads, fixture has %d", name, len(got.Speeds), len(want.Speeds))
		}
		for r := range want.Speeds {
			if got.Speeds[r] != want.Speeds[r] || got.Rels[r] != want.Rels[r] ||
				got.PUp[r] != want.PUp[r] || got.TrendUp[r] != want.TrendUp[r] {
				t.Fatalf("%s road %d diverges from the fixture: speed %v vs %v, rel %v vs %v, pUp %v vs %v, up %v vs %v",
					name, r, got.Speeds[r], want.Speeds[r], got.Rels[r], want.Rels[r],
					got.PUp[r], want.PUp[r], got.TrendUp[r], want.TrendUp[r])
			}
		}
	}
}

// TestViewSeedSelectionEqual: the view's SelectSeeds runs the configured
// selector (lazy greedy by default) on its own problem, so the picks match
// that selector's exactly.
func TestViewSeedSelectionEqual(t *testing.T) {
	ctx := context.Background()
	d := buildCity(t, 6, 5)
	v, err := NewView(d.Net, d.DB, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	k := d.Net.NumRoads() / 10
	want, err := seedsel.Lazy{}.Select(v.Problem(), k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.SelectSeeds(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d seeds, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d = %d, want %d", i, got[i], want[i])
		}
	}
}
