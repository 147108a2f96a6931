package history

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/gps"
	"repro/internal/roadnet"
	"repro/internal/timeslot"
)

func cal(t *testing.T) *timeslot.Calendar {
	t.Helper()
	return timeslot.MustCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), 10*time.Minute)
}

func TestBuilderValidation(t *testing.T) {
	c := cal(t)
	if _, err := NewBuilder(c, 0); err == nil {
		t.Error("zero roads accepted")
	}
	b, err := NewBuilder(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(5, 0, 10); err == nil {
		t.Error("out-of-range road accepted")
	}
	if err := b.Add(-1, 0, 10); err == nil {
		t.Error("negative road accepted")
	}
	if err := b.Add(0, 0, 0); err == nil {
		t.Error("zero speed accepted")
	}
	if err := b.Add(0, 0, math.NaN()); err == nil {
		t.Error("NaN speed accepted")
	}
	if err := b.Add(0, 0, math.Inf(1)); err == nil {
		t.Error("Inf speed accepted")
	}
}

func TestProfileMeansPerSlotOfWeek(t *testing.T) {
	c := cal(t)
	b, _ := NewBuilder(c, 2)
	// Road 0: 12 m/s every Monday slot 0, over 3 weeks; 6 m/s at slot 1.
	spw := c.SlotsPerWeek()
	for week := 0; week < 3; week++ {
		if err := b.Add(0, week*spw, 12); err != nil {
			t.Fatal(err)
		}
		if err := b.Add(0, week*spw+1, 6); err != nil {
			t.Fatal(err)
		}
	}
	db := b.Finalize()
	if m, ok := db.Mean(0, 0); !ok || m != 12 {
		t.Errorf("Mean slot 0 = %v/%v", m, ok)
	}
	if m, ok := db.Mean(0, 1); !ok || m != 6 {
		t.Errorf("Mean slot 1 = %v/%v", m, ok)
	}
	// The class repeats weekly.
	if m, _ := db.Mean(0, spw); m != 12 {
		t.Errorf("Mean next week = %v", m)
	}
	// Unobserved class falls back to the road overall mean (9).
	if m, ok := db.Mean(0, 2); !ok || m != 9 {
		t.Errorf("fallback Mean = %v/%v", m, ok)
	}
	// Road 1 has no data at all.
	if _, ok := db.Mean(1, 0); ok {
		t.Error("road with no history reported a mean")
	}
	if _, ok := db.Std(1, 0); ok {
		t.Error("road with no history reported a std")
	}
}

func TestSlotLevelAveraging(t *testing.T) {
	c := cal(t)
	b, _ := NewBuilder(c, 1)
	// Multiple observations in one slot average before entering the profile.
	for _, v := range []float64{8, 10, 12} {
		if err := b.Add(0, 0, v); err != nil {
			t.Fatal(err)
		}
	}
	db := b.Finalize()
	if m, _ := db.Mean(0, 0); m != 10 {
		t.Errorf("slot-level mean = %v, want 10", m)
	}
	if got := db.ObservationCount(); got != 1 {
		t.Errorf("ObservationCount = %d, want 1 slot-level sample", got)
	}
}

func TestStdComputation(t *testing.T) {
	c := cal(t)
	b, _ := NewBuilder(c, 1)
	spw := c.SlotsPerWeek()
	// Same class over 4 weeks: 8, 10, 10, 12 → std = sqrt(2).
	for week, v := range []float64{8, 10, 10, 12} {
		if err := b.Add(0, week*spw, v); err != nil {
			t.Fatal(err)
		}
	}
	db := b.Finalize()
	std, ok := db.Std(0, 0)
	if !ok || math.Abs(std-math.Sqrt(2)) > 1e-6 {
		t.Errorf("Std = %v/%v, want sqrt(2)", std, ok)
	}
}

func TestPUpSmoothing(t *testing.T) {
	c := cal(t)
	b, _ := NewBuilder(c, 1)
	spw := c.SlotsPerWeek()
	// Values 8, 10, 10, 12 around mean 10: rel = .8, 1, 1, 1.2 → 3 of 4 up.
	for week, v := range []float64{8, 10, 10, 12} {
		if err := b.Add(0, week*spw, v); err != nil {
			t.Fatal(err)
		}
	}
	db := b.Finalize()
	want := (3.0 + 1) / (4.0 + 2)
	if got := db.PUp(0, 0); math.Abs(got-want) > 1e-9 {
		t.Errorf("PUp = %v, want %v", got, want)
	}
	// A cell with no data is exactly 0.5.
	if got := db.PUp(0, 5); got != 0.5 {
		t.Errorf("empty-cell PUp = %v", got)
	}
}

func TestSeriesSortedAndRelative(t *testing.T) {
	c := cal(t)
	b, _ := NewBuilder(c, 1)
	spw := c.SlotsPerWeek()
	// Insert out of order.
	for _, wk := range []int{2, 0, 1} {
		if err := b.Add(0, wk*spw, 10+float64(wk)); err != nil {
			t.Fatal(err)
		}
	}
	db := b.Finalize()
	s := samplesOf(db, 0)
	if len(s) != 3 {
		t.Fatalf("series length %d", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i-1].slot >= s[i].slot {
			t.Error("series not sorted")
		}
	}
	// Mean is 11; samples 10, 11, 12 → rel ≈ 0.909, 1.0, 1.091.
	if math.Abs(float64(s[0].rel)-10.0/11) > 1e-6 {
		t.Errorf("rel[0] = %v", s[0].rel)
	}
	// Up is rel ≥ 1, so the sample exactly at the mean counts as up.
	if s[1].rel < 1 || s[0].rel >= 1 || db.PUp(0, 0) != (2.0+1)/(3.0+2) {
		t.Error("Up classification wrong")
	}
}

func TestCoObserved(t *testing.T) {
	c := cal(t)
	b, _ := NewBuilder(c, 2)
	// Road 0 observed at slots 0,1,2; road 1 at slots 1,2,3.
	for _, slot := range []int{0, 1, 2} {
		if err := b.Add(0, slot, 10); err != nil {
			t.Fatal(err)
		}
	}
	for _, slot := range []int{1, 2, 3} {
		if err := b.Add(1, slot, 20); err != nil {
			t.Fatal(err)
		}
	}
	db := b.Finalize()
	var slots []int32
	db.CoObserved(0, 1, func(slot int32, _, _ float32) { slots = append(slots, slot) })
	if len(slots) != 2 || slots[0] != 1 || slots[1] != 2 {
		t.Errorf("CoObserved slots = %v, want [1 2]", slots)
	}
}

func TestCoverage(t *testing.T) {
	c := cal(t)
	b, _ := NewBuilder(c, 4)
	if err := b.Add(0, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(1, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(1, 1, 10); err != nil {
		t.Fatal(err)
	}
	db := b.Finalize()
	if got := db.Coverage(1); got != 0.5 {
		t.Errorf("Coverage(1) = %v", got)
	}
	if got := db.Coverage(2); got != 0.25 {
		t.Errorf("Coverage(2) = %v", got)
	}
}

func TestAddObservations(t *testing.T) {
	c := cal(t)
	b, _ := NewBuilder(c, 2)
	obs := []gps.Observation{
		{Road: 0, Slot: 0, Speed: 10},
		{Road: 1, Slot: 0, Speed: 15},
	}
	if err := b.AddObservations(obs); err != nil {
		t.Fatal(err)
	}
	if err := b.AddObservations([]gps.Observation{{Road: 9, Slot: 0, Speed: 1}}); err == nil {
		t.Error("invalid observation accepted")
	}
	db := b.Finalize()
	if db.ObservationCount() != 2 {
		t.Errorf("count = %d", db.ObservationCount())
	}
}

func TestCodecRoundTrip(t *testing.T) {
	c := cal(t)
	rng := rand.New(rand.NewSource(1))
	numRoads := 5
	b, _ := NewBuilder(c, numRoads)
	for road := 0; road < numRoads-1; road++ { // leave the last road empty
		for slot := 0; slot < 500; slot++ {
			if rng.Float64() < 0.6 {
				if err := b.Add(roadnet.RoadID(road), slot, 5+rng.Float64()*10); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	db := b.Finalize()
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	back, err := ReadDB(&buf)
	if err != nil {
		t.Fatalf("ReadDB: %v", err)
	}
	if back.NumRoads() != db.NumRoads() {
		t.Fatalf("roads %d vs %d", back.NumRoads(), db.NumRoads())
	}
	if back.Cal().Width() != db.Cal().Width() || !back.Cal().Epoch().Equal(db.Cal().Epoch()) {
		t.Error("calendar not preserved")
	}
	for road := 0; road < numRoads; road++ {
		id := roadnet.RoadID(road)
		a, aok := db.Mean(id, 3)
		bm, bok := back.Mean(id, 3)
		if aok != bok || math.Abs(a-bm) > 1e-6 {
			t.Errorf("road %d mean %v/%v vs %v/%v", road, a, aok, bm, bok)
		}
		if got, want := len(back.Rels(id)), len(db.Rels(id)); got != want {
			t.Errorf("road %d series %d vs %d", road, got, want)
		}
		if db.PUp(id, 3) != back.PUp(id, 3) {
			t.Errorf("road %d PUp differs", road)
		}
	}
}

func TestReadDBRejectsGarbage(t *testing.T) {
	if _, err := ReadDB(bytes.NewBufferString("nope")); err == nil {
		t.Error("garbage magic accepted")
	}
	if _, err := ReadDB(bytes.NewBufferString("")); err == nil {
		t.Error("empty input accepted")
	}
	// Correct magic, bad version.
	var buf bytes.Buffer
	buf.WriteString("THDB")
	buf.Write([]byte{9, 9, 9, 9})
	if _, err := ReadDB(&buf); err == nil {
		t.Error("bad version accepted")
	}
	// Truncated valid stream.
	c := cal(t)
	b, _ := NewBuilder(c, 2)
	if err := b.Add(0, 0, 10); err != nil {
		t.Fatal(err)
	}
	db := b.Finalize()
	var full bytes.Buffer
	if _, err := db.WriteTo(&full); err != nil {
		t.Fatal(err)
	}
	trunc := full.Bytes()[:full.Len()/2]
	if _, err := ReadDB(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
}

// encodeSeries returns a database file with one road per entry of series:
// empty profiles, then each road's samples exactly as given, valid or not.
func encodeSeries(t testing.TB, series [][]sample) []byte {
	t.Helper()
	b, err := NewBuilder(timeslot.MustCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), 10*time.Minute), len(series))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.Finalize().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-4*len(series)] // drop the empty series
	for _, s := range series {
		raw = binary.LittleEndian.AppendUint32(raw, uint32(len(s)))
		for _, x := range s {
			raw = binary.LittleEndian.AppendUint32(raw, uint32(x.slot))
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(x.rel))
		}
	}
	return raw
}

// TestReadDBRejectsMalformedSeries: a series whose slots are negative or not
// strictly increasing, or which holds a NaN rel, cannot come out of Finalize
// and breaks every reader's slot-order assumption, so ReadDB refuses it.
func TestReadDBRejectsMalformedSeries(t *testing.T) {
	good := []sample{{1, 0.9}, {2, 1.1}, {3, 1}}
	if db, err := ReadDB(bytes.NewReader(encodeSeries(t, [][]sample{good, {{1, 1}, {3, 0.5}}}))); err != nil {
		t.Fatalf("well-formed series rejected: %v", err)
	} else if got := samplesOf(db, 1); len(got) != 2 || got[1] != (sample{3, 0.5}) {
		t.Fatalf("well-formed series decoded as %v", got)
	}
	for _, tc := range []struct {
		name   string
		series []sample
	}{
		{"out of order", []sample{{3, 1}, {1, 1.2}}},
		{"duplicate", []sample{{1, 1}, {1, 1.2}}},
		{"negative slot", []sample{{-1, 1}, {2, 1.2}}},
		{"NaN rel", []sample{{1, float32(math.NaN())}, {3, 1}}},
	} {
		if _, err := ReadDB(bytes.NewReader(encodeSeries(t, [][]sample{good, tc.series}))); err == nil {
			t.Errorf("%s: series %v accepted", tc.name, tc.series)
		}
	}
}

func TestNewBuilderFromRoundTrip(t *testing.T) {
	c := cal(t)
	rng := rand.New(rand.NewSource(5))
	oneShot, _ := NewBuilder(c, 4)
	firstHalf, _ := NewBuilder(c, 4)
	type obs struct {
		road  roadnet.RoadID
		slot  int
		speed float64
	}
	var late []obs
	for road := 0; road < 4; road++ {
		for slot := 0; slot < 800; slot++ {
			if rng.Float64() > 0.5 {
				continue
			}
			o := obs{road: roadnet.RoadID(road), slot: slot, speed: 5 + rng.Float64()*10}
			if err := oneShot.Add(o.road, o.slot, o.speed); err != nil {
				t.Fatal(err)
			}
			if slot < 400 {
				if err := firstHalf.Add(o.road, o.slot, o.speed); err != nil {
					t.Fatal(err)
				}
			} else {
				late = append(late, o)
			}
		}
	}
	want := oneShot.Finalize()

	// Roll: finalize the first half, rebuild a builder from it, append the
	// second half, finalize again.
	half := firstHalf.Finalize()
	rolled, err := NewBuilderFrom(half)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range late {
		if err := rolled.Add(o.road, o.slot, o.speed); err != nil {
			t.Fatal(err)
		}
	}
	got := rolled.Finalize()

	if got.ObservationCount() != want.ObservationCount() {
		t.Fatalf("sample counts differ: %d vs %d", got.ObservationCount(), want.ObservationCount())
	}
	// Profile means must match (they define trends and rels downstream).
	// PUp can flip for samples landing exactly on a class mean under
	// float32 round-tripping, so it is checked in aggregate.
	var pupChecks, pupFar int
	for road := 0; road < 4; road++ {
		id := roadnet.RoadID(road)
		for slot := 0; slot < 800; slot += 7 {
			mw, okW := want.Mean(id, slot)
			mg, okG := got.Mean(id, slot)
			if okW != okG || math.Abs(mw-mg) > 1e-4 {
				t.Fatalf("road %d slot %d: mean %v/%v vs %v/%v", road, slot, mw, okW, mg, okG)
			}
			pupChecks++
			if math.Abs(want.PUp(id, slot)-got.PUp(id, slot)) > 0.05 {
				pupFar++
			}
		}
	}
	if pupFar > pupChecks/20 {
		t.Errorf("%d/%d profile cells changed PUp materially after the roll", pupFar, pupChecks)
	}
}

func TestNewBuilderFromEmptyDB(t *testing.T) {
	c := cal(t)
	b, _ := NewBuilder(c, 2)
	if err := b.Add(0, 0, 10); err != nil {
		t.Fatal(err)
	}
	db := b.Finalize()
	rolled, err := NewBuilderFrom(db)
	if err != nil {
		t.Fatal(err)
	}
	got := rolled.Finalize()
	if got.ObservationCount() != 1 {
		t.Errorf("count = %d", got.ObservationCount())
	}
	// Road 1 never observed stays unobserved.
	if _, ok := got.Mean(1, 0); ok {
		t.Error("phantom observations appeared")
	}
}

// TestBuilderValidationSentinel: every rejection must match the
// ErrInvalidObservation sentinel so callers (and, one layer up, the API's
// 400-vs-500 split) can classify it with errors.Is.
func TestBuilderValidationSentinel(t *testing.T) {
	b, err := NewBuilder(cal(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		road  roadnet.RoadID
		slot  int
		speed float64
	}{
		{"road out of range", 5, 0, 10},
		{"negative road", -1, 0, 10},
		{"negative slot", 0, -1, 10},
		{"slot beyond int32", 0, math.MaxInt32 + 1, 10},
		{"zero speed", 0, 0, 0},
		{"negative speed", 0, 0, -4},
		{"NaN speed", 0, 0, math.NaN()},
		{"+Inf speed", 0, 0, math.Inf(1)},
		{"-Inf speed", 0, 0, math.Inf(-1)},
	}
	for _, tc := range cases {
		err := b.Add(tc.road, tc.slot, tc.speed)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalidObservation) {
			t.Errorf("%s: error %v is not ErrInvalidObservation", tc.name, err)
		}
	}
	// Nothing leaked into the aggregates.
	if got := b.Finalize().ObservationCount(); got != 0 {
		t.Errorf("%d observations stored from rejected adds", got)
	}
}

// TestBuilderConcurrentAdd races many goroutines into one builder (run with
// -race) and checks the final database matches a serial build: the server's
// ingestion path folds crowd reports in from concurrent request handlers.
func TestBuilderConcurrentAdd(t *testing.T) {
	c := cal(t)
	const roads, perG, workers = 6, 200, 8
	conc, _ := NewBuilder(c, roads)
	serial, _ := NewBuilder(c, roads)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				road := roadnet.RoadID((g + i) % roads)
				slot := (g*perG + i) % 500
				if err := conc.Add(road, slot, 5+float64(i%20)); err != nil {
					t.Errorf("concurrent Add: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < workers; g++ {
		for i := 0; i < perG; i++ {
			road := roadnet.RoadID((g + i) % roads)
			slot := (g*perG + i) % 500
			if err := serial.Add(road, slot, 5+float64(i%20)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, want := conc.Finalize(), serial.Finalize()
	if got.ObservationCount() != want.ObservationCount() {
		t.Fatalf("observation counts differ: %d vs %d", got.ObservationCount(), want.ObservationCount())
	}
	for r := 0; r < roads; r++ {
		for slot := 0; slot < 500; slot += 11 {
			mg, okG := got.Mean(roadnet.RoadID(r), slot)
			mw, okW := want.Mean(roadnet.RoadID(r), slot)
			if okG != okW || math.Abs(mg-mw) > 1e-9 {
				t.Fatalf("road %d slot %d: mean %v/%v vs %v/%v", r, slot, mg, okG, mw, okW)
			}
		}
	}
}
