package dataset

import (
	"reflect"
	"testing"

	"repro/internal/roadnet"
)

// smallConfig keeps test datasets quick to assemble.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 7, 6
	cfg.HistoryDays = 5
	return cfg
}

func TestBuildValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.HistoryDays = 0
	if _, err := Build(cfg); err == nil {
		t.Error("zero history days accepted")
	}
	cfg = smallConfig()
	cfg.CoveragePerSlot = 0
	if _, err := Build(cfg); err == nil {
		t.Error("zero coverage accepted")
	}
	cfg = smallConfig()
	cfg.ObsNoise = -1
	if _, err := Build(cfg); err == nil {
		t.Error("negative noise accepted")
	}
	cfg = smallConfig()
	cfg.Net.BlocksX = 0
	if _, err := Build(cfg); err == nil {
		t.Error("bad network config accepted")
	}
}

func TestBuildProducesUsableHistory(t *testing.T) {
	d, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Net.NumRoads() == 0 {
		t.Fatal("no roads")
	}
	if d.DB.NumRoads() != d.Net.NumRoads() {
		t.Errorf("history covers %d roads, network has %d", d.DB.NumRoads(), d.Net.NumRoads())
	}
	// At 55% coverage over 5 days nearly every road should have samples.
	if cov := d.DB.Coverage(10); cov < 0.95 {
		t.Errorf("coverage = %v", cov)
	}
	// Historical means must be physically plausible.
	withMean := 0
	for i := 0; i < d.Net.NumRoads(); i++ {
		if m, ok := d.DB.Mean(roadnet.RoadID(i), 0); ok {
			withMean++
			if m < 1 || m > 40 {
				t.Errorf("road %d mean %v implausible", i, m)
			}
		}
	}
	if withMean < d.Net.NumRoads()*9/10 {
		t.Errorf("only %d/%d roads have means", withMean, d.Net.NumRoads())
	}
}

func TestTruthAdvances(t *testing.T) {
	d, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	startSlot := d.Slot()
	wantStart := 5 * d.Cal.SlotsPerDay()
	if startSlot != wantStart {
		t.Errorf("post-history slot = %d, want %d", startSlot, wantStart)
	}
	before := make([]float64, len(d.Truth()))
	copy(before, d.Truth())
	slot, speeds := d.NextTruth()
	if slot != startSlot+1 {
		t.Errorf("NextTruth slot = %d", slot)
	}
	changed := false
	for i := range speeds {
		if speeds[i] != before[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("truth did not change across a step")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.DB.ObservationCount() != b.DB.ObservationCount() {
		t.Errorf("observation counts differ: %d vs %d", a.DB.ObservationCount(), b.DB.ObservationCount())
	}
	for i := range a.Truth() {
		if a.Truth()[i] != b.Truth()[i] {
			t.Fatalf("truth differs at %d", i)
		}
	}
}

func TestCityConfigsValidate(t *testing.T) {
	for name, cfg := range map[string]Config{"B": BCity(), "T": TCity()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s-City config invalid: %v", name, err)
		}
	}
}

// TestPreset: each -city name maps to its preset, and an unknown name is
// refused.
func TestPreset(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Config
	}{
		{"b", BCity()},
		{"t", TCity()},
		{"default", DefaultConfig()},
	} {
		got, err := Preset(tc.name)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Preset(%q) = %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}
	if _, err := Preset("B"); err == nil {
		t.Error(`Preset("B") accepted an unknown name`)
	}
}
