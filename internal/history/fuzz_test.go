package history

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/roadnet"
	"repro/internal/timeslot"
)

// fuzzSeedDB builds a tiny valid database and returns its serialized form,
// the canonical well-formed corpus entry.
func fuzzSeedDB(f *testing.F) []byte {
	f.Helper()
	c := timeslot.MustCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), 10*time.Minute)
	b, err := NewBuilder(c, 2)
	if err != nil {
		f.Fatal(err)
	}
	for day := 0; day < 2; day++ {
		base := day * c.SlotsPerDay()
		if err := b.Add(0, base, 10.5); err != nil {
			f.Fatal(err)
		}
		if err := b.Add(1, base+1, 7.25); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := b.Finalize().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// overflowHeader returns the 28-byte header of valid with the slot width set
// to 1 ns and 53,376 roads: 1.728·10¹⁴ profile classes per road, so the
// profile table's cell count overflows an int.
func overflowHeader(valid []byte) []byte {
	hdr := append([]byte(nil), valid[:16]...) // magic, version, epoch
	hdr = binary.LittleEndian.AppendUint64(hdr, 1)
	return binary.LittleEndian.AppendUint32(hdr, 53376)
}

// FuzzReadDB drives the binary decoder with arbitrary bytes, seeded with
// both codec versions. The properties:
// ReadDB never panics and never allocates proportionally to declared (rather
// than delivered) lengths — the decompression-bomb guard — every series it
// accepts lists strictly increasing slots, and anything it accepts must
// round-trip: re-encoding the decoded DB and decoding that must yield a
// byte-identical encoding (the codec is canonical).
func FuzzReadDB(f *testing.F) {
	valid := fuzzSeedDB(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("THDB"))
	f.Add(valid[:len(valid)/2])                           // truncated mid-payload
	f.Add(append([]byte("XHDB"), valid[4:]...))           // bad magic
	f.Add(append([]byte(nil), bytes.Repeat(valid, 2)...)) // trailing garbage
	// Bomb shape: a complete 28-byte header whose numRoads (offset 24,
	// little-endian, after magic+version+epoch+width) declares ~16M roads
	// with no payload behind it. Must fail fast on truncation, not allocate
	// proportionally to the declared count first.
	bomb := append([]byte(nil), valid[:28]...)
	bomb[24], bomb[25], bomb[26], bomb[27] = 0xff, 0xff, 0xff, 0x00
	f.Add(bomb)
	f.Add(overflowHeader(valid))
	f.Add(encodeSeries(f, [][]sample{{{3, 1}, {1, 1}, {1, float32(math.NaN())}}, {{1, 1}, {2, 1}, {3, 1}}}))
	v1, err := os.ReadFile(v1Fixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadDB(bytes.NewReader(data))
		if err != nil {
			return
		}
		if db.NumRoads() <= 0 {
			t.Fatalf("accepted a DB with %d roads", db.NumRoads())
		}
		for r := 0; r < db.NumRoads(); r++ {
			last := int32(-1)
			db.EachSample(roadnet.RoadID(r), func(slot int32, _ float32) {
				if slot <= last {
					t.Fatalf("accepted road %d with slot %d after slot %d", r, slot, last)
				}
				last = slot
			})
		}
		var first bytes.Buffer
		if _, err := db.WriteTo(&first); err != nil {
			t.Fatalf("re-encoding accepted DB: %v", err)
		}
		db2, err := ReadDB(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own encoding: %v", err)
		}
		var second bytes.Buffer
		if _, err := db2.WriteTo(&second); err != nil {
			t.Fatalf("re-encoding round-tripped DB: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding is not canonical: round-trip changed %d bytes", len(first.Bytes()))
		}
	})
}

// fuzzSeries decodes the series of the given number of roads from fuzz
// bytes, three bytes a sample: which road and how far past the road's
// previous slot (a few slots, a few blocks, or most of the slot range), and
// the rel, a multiple of 1/128 so that rels at exactly 1 occur. Slots stay
// below 2³¹, strictly increasing per road.
func fuzzSeries(data []byte, roads int) [][]sample {
	series := make([][]sample, roads)
	next := make([]int64, roads)
	for ; len(data) >= 3; data = data[3:] {
		r := int(data[0]) % roads
		gap := int64(data[1])
		switch int(data[0]) / roads & 3 {
		case 0:
			gap %= 4
		case 2:
			gap <<= 6
		case 3:
			gap <<= 23
		}
		slot := next[r] + gap
		if slot > math.MaxInt32 {
			continue
		}
		series[r] = append(series[r], sample{int32(slot), float32(data[2]) / 128})
		next[r] = slot + 1
	}
	return series
}

// FuzzCoObserved checks CoObserved's callbacks and CoCounts against the
// per-sample merge join on two fuzz-decoded series, which ReadDB must
// accept, in both argument orders and for each road with itself.
func FuzzCoObserved(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 3, 60, 300} {
		seed := make([]byte, 3*n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{0, 63, 128, 1, 64, 128, 4, 0, 127, 5, 1, 129, 6, 255, 64, 7, 255, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		series := fuzzSeries(data, 2)
		db, err := ReadDB(bytes.NewReader(encodeSeries(t, series)))
		if err != nil {
			t.Fatalf("well-formed series %v rejected: %v", series, err)
		}
		for u := range series {
			for v := range series {
				checkCoObserved(t, "fuzz", db, roadnet.RoadID(u), roadnet.RoadID(v), series[u], series[v])
			}
		}
	})
}

// FuzzEachAligned checks EachAligned against EachSample with a per-sample
// lookup of each feature's rel, on four fuzz-decoded series: for each road,
// the other three and then the road itself as the features, and each
// prefix of that list. Every row must match in slot order and bit for bit.
func FuzzEachAligned(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 3, 60, 300, 1200} {
		seed := make([]byte, 3*n)
		rng.Read(seed)
		f.Add(seed)
	}
	// Four roads at slots 0, 63, 64 and 127, on both sides of a block edge,
	// with rels below, at and above 1; road 3 skips slot 64, so its last
	// slot is 126.
	var edge []byte
	for i, gap := range []byte{0, 62, 0, 62} { // each slot is one past the last plus the gap
		for r := range byte(4) {
			if r != 3 || i != 2 {
				edge = append(edge, 4+r, gap, 126+r) // 4+r: road r, a gap of up to 255
			}
		}
	}
	f.Add(edge)
	f.Fuzz(func(t *testing.T, data []byte) {
		series := fuzzSeries(data, 4)
		db, err := ReadDB(bytes.NewReader(encodeSeries(t, series)))
		if err != nil {
			t.Fatalf("well-formed series %v rejected: %v", series, err)
		}
		for r := range series {
			if got := samplesOf(db, roadnet.RoadID(r)); !slices.Equal(got, series[r]) {
				t.Fatalf("road %d EachSample %v, decoded %v", r, got, series[r])
			}
			checkAligned(t, "fuzz", db, series, r, rotation(r, len(series)))
		}
	})
}

// builderRecord is one FuzzBuilderFinite input record: a road byte, a
// little-endian uint16 slot and the speed's little-endian float64 bits.
const builderRecord = 11

// builderTriples encodes (road, slot, speed) triples as FuzzBuilderFinite
// decodes them.
func builderTriples(triples ...[3]float64) []byte {
	var out []byte
	for _, tr := range triples {
		rec := make([]byte, builderRecord)
		rec[0] = byte(tr[0])
		binary.LittleEndian.PutUint16(rec[1:], uint16(tr[1]))
		binary.LittleEndian.PutUint64(rec[3:], math.Float64bits(tr[2]))
		out = append(out, rec...)
	}
	return out
}

// FuzzBuilderFinite adds fuzz-decoded observations to a three-road builder.
// The property: whatever Add accepts leaves the finalized DB finite — every
// accepted observation's Mean and PUp, and every road's rels. The DB
// stores float32 profiles, so Add must reject the finite speeds float32
// cannot hold.
func FuzzBuilderFinite(f *testing.F) {
	f.Add(builderTriples([3]float64{0, 0, 10.5}, [3]float64{0, 1008, 1e300}, [3]float64{0, 2016, 9}))
	f.Add(builderTriples([3]float64{1, 5, math.MaxFloat64}, [3]float64{1, 5, 12}))
	f.Add(builderTriples([3]float64{2, 7, math.MaxFloat32}, [3]float64{2, 7, math.MaxFloat32}, [3]float64{2, 1015, 3}))
	f.Add(builderTriples([3]float64{0, 3, math.Nextafter(math.MaxFloat32, math.Inf(1))}, [3]float64{0, 1011, 8}))
	f.Add(builderTriples([3]float64{1, 9, 1e-300}, [3]float64{1, 1017, 5e-324}, [3]float64{1, 9, 14}))
	c := timeslot.MustCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), 10*time.Minute)
	f.Fuzz(func(t *testing.T, data []byte) {
		const roads = 3
		b, err := NewBuilder(c, roads)
		if err != nil {
			t.Fatal(err)
		}
		type obs struct {
			road  roadnet.RoadID
			slot  int
			speed float64
		}
		var accepted []obs
		for ; len(data) >= builderRecord; data = data[builderRecord:] {
			o := obs{
				road:  roadnet.RoadID(data[0] % roads),
				slot:  int(binary.LittleEndian.Uint16(data[1:])),
				speed: math.Float64frombits(binary.LittleEndian.Uint64(data[3:])),
			}
			if b.Add(o.road, o.slot, o.speed) == nil {
				accepted = append(accepted, o)
			}
		}
		db := b.Finalize()
		finite := func(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
		for _, o := range accepted {
			mean, _ := db.Mean(o.road, o.slot)
			if pUp := db.PUp(o.road, o.slot); !finite(mean) || !finite(pUp) {
				t.Fatalf("after %v m/s on road %d slot %d: mean %v, p_up %v", o.speed, o.road, o.slot, mean, pUp)
			}
		}
		for r := range roadnet.RoadID(roads) {
			for k, rel := range db.Rels(r) {
				if !finite(float64(rel)) {
					t.Fatalf("road %d sample %d: rel %v", r, k, rel)
				}
			}
		}
	})
}

// rollRecord is one FuzzRollForward input record: the road (low six bits)
// and the builder it goes to (top two bits: 0 the base, 1 the first delta,
// 2 or 3 the second), a little-endian uint16 slot and a speed byte.
const rollRecord = 4

// rollRecords encodes (builder, road, slot, speed byte) records as
// FuzzRollForward decodes them.
func rollRecords(recs ...[4]int) []byte {
	var out []byte
	for _, r := range recs {
		out = append(out, byte(r[0]<<6|r[1]), byte(r[2]), byte(r[2]>>8), byte(r[3]))
	}
	return out
}

// FuzzRollForward builds a base from fuzz-decoded observations, rolls it
// forward by a delta and rolls the result forward by another. Each of the
// three databases must match refFinalize bit for bit, and each roll-forward's
// Dirty must report exactly its delta. The first byte sets the road count,
// one to four; slots span 65,536 and speeds 0.25 to 64 m/s.
func FuzzRollForward(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 8, 60, 400} {
		seed := make([]byte, 1+rollRecord*n)
		rng.Read(seed)
		f.Add(seed)
	}
	// Repeated slots in every phase, window edges, and midnight on a
	// Saturday (slot 720) and on a Monday (slot 1008).
	f.Add(append([]byte{2}, rollRecords(
		[4]int{0, 0, 63, 40}, [4]int{0, 0, 63, 41}, [4]int{0, 0, 64, 39}, [4]int{0, 1, 720, 60},
		[4]int{1, 0, 63, 80}, [4]int{1, 0, 64, 20}, [4]int{1, 0, 63, 81}, [4]int{1, 0, 128, 7},
		[4]int{2, 1, 720, 61}, [4]int{2, 0, 63, 200}, [4]int{2, 1, 1008, 33}, [4]int{3, 1, 65535, 255},
	)...))
	c := timeslot.MustCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), 10*time.Minute)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		numRoads := 1 + int(data[0]%4)
		var phases [3][]refAdd
		for data = data[1:]; len(data) >= rollRecord; data = data[rollRecord:] {
			phase := min(int(data[0]>>6), 2)
			phases[phase] = append(phases[phase], refAdd{
				road:  roadnet.RoadID(int(data[0]&63) % numRoads),
				slot:  int32(binary.LittleEndian.Uint16(data[1:])),
				speed: 0.25 + float64(data[3])/4,
			})
		}
		var base *DB
		for phase, adds := range phases {
			var b *Builder
			var err error
			if base == nil {
				b, err = NewBuilder(c, numRoads)
			} else {
				b, err = NewBuilderFrom(base)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range adds {
				if err := b.Add(a.road, int(a.slot), a.speed); err != nil {
					t.Fatal(err)
				}
			}
			db := b.Finalize()
			sameDB(t, fmt.Sprintf("phase %d", phase), db, refFinalize(c, numRoads, base, adds))
			if base != nil {
				if got, want := b.Dirty(), refDirty(adds); !reflect.DeepEqual(got, want) {
					t.Fatalf("phase %d: Dirty = %+v, reference %+v", phase, got, want)
				}
			}
			base = db
		}
	})
}
