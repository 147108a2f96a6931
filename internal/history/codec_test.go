package history

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/roadnet"
	"repro/internal/timeslot"
)

// v1Fixture is a database in codec version 1, whose cells also held a
// standard deviation and 32-bit counts. The version-1 encoder wrote it from
// v1FixtureAdds on v1FixtureCal, three roads of which the last is never
// observed.
const v1Fixture = "testdata/v1.thdb"

// v1FixtureCal is the fixture's one-hour calendar: 48 profile classes a
// road.
var v1FixtureCal = timeslot.MustCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), time.Hour)

// v1FixtureAdds are the fixture's observations: three weeks on two roads,
// some slots more than once, weekdays and weekends.
func v1FixtureAdds() []refAdd {
	rng := rand.New(rand.NewSource(23))
	adds := make([]refAdd, 240)
	for i := range adds {
		adds[i] = refAdd{road: roadnet.RoadID(rng.Intn(2)), slot: int32(rng.Intn(3 * 168)), speed: 4 + 12*rng.Float64()}
	}
	return adds
}

// asRef lists a database's cells, overall means and series the way
// refFinalize does, for sameDB.
func asRef(db *DB) *refDB {
	ref := &refDB{overall: db.overall, series: make([][]sample, db.numRoads)}
	for r, cells := range db.profile {
		ref.profile = append(ref.profile, cells...)
		ref.series[r] = samplesOf(db, roadnet.RoadID(r))
	}
	return ref
}

// TestReadDBVersion1: a version-1 file decodes to the means, counts,
// overall means and series Finalize builds from the same observations, bit
// for bit, its standard deviations skipped; re-encoded, it is the current
// version's encoding of that database.
func TestReadDBVersion1(t *testing.T) {
	raw, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != 1 {
		t.Fatalf("%s is version %d, want 1", v1Fixture, v)
	}
	got, err := ReadDB(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadDB(%s): %v", v1Fixture, err)
	}
	b, err := NewBuilder(v1FixtureCal, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range v1FixtureAdds() {
		if err := b.Add(a.road, int(a.slot), a.speed); err != nil {
			t.Fatal(err)
		}
	}
	want := b.Finalize()
	if got.NumRoads() != want.NumRoads() || got.Cal().Width() != want.Cal().Width() || !got.Cal().Epoch().Equal(want.Cal().Epoch()) {
		t.Fatalf("decoded %d roads at %v from %v; built %d at %v from %v",
			got.NumRoads(), got.Cal().Width(), got.Cal().Epoch(), want.NumRoads(), want.Cal().Width(), want.Cal().Epoch())
	}
	sameDB(t, "version 1", got, asRef(want))
	var multi int
	for _, cells := range want.profile {
		for _, c := range cells {
			if c.n > 1 {
				multi++
			}
		}
	}
	if multi == 0 {
		t.Fatal("no class holds two samples, so no standard deviation was skipped")
	}
	var fromV1, built bytes.Buffer
	if _, err := got.WriteTo(&fromV1); err != nil {
		t.Fatal(err)
	}
	if _, err := want.WriteTo(&built); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromV1.Bytes(), built.Bytes()) {
		t.Error("the decoded version-1 file re-encodes unlike the database built from its observations")
	}
}

// TestReadDBVersion1SaturatesCounts: version-1 counts past math.MaxUint16
// decode to math.MaxUint16, as Finalize stores them, and smaller counts
// unchanged.
func TestReadDBVersion1SaturatesCounts(t *testing.T) {
	raw, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	const hdr, cell = 28, 16 // version 1: mean f32, std f32, n u32, nUp u32
	for i, counts := range [][2]uint32{{70000, 69000}, {70000, 1000}, {65535, 65535}, {1 << 31, 1 << 31}} {
		binary.LittleEndian.PutUint32(raw[hdr+cell*i+8:], counts[0])
		binary.LittleEndian.PutUint32(raw[hdr+cell*i+12:], counts[1])
	}
	db, err := ReadDB(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][2]uint16{{65535, 65535}, {65535, 1000}, {65535, 65535}, {65535, 65535}} {
		if c := db.profile[0][i]; c.n != want[0] || c.nUp != want[1] {
			t.Errorf("class %d: n %d, nUp %d; want %d, %d", i, c.n, c.nUp, want[0], want[1])
		}
	}
}
