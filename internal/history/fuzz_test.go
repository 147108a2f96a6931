package history

import (
	"bytes"
	"math"
	"math/rand"
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

// FuzzReadDB drives the binary decoder with arbitrary bytes. The properties:
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
	f.Add(encodeSeries(f, [][]sample{{{3, 1}, {1, 1}, {1, float32(math.NaN())}}, {{1, 1}, {2, 1}, {3, 1}}}))

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

// fuzzSeries decodes two roads' series from fuzz bytes, three bytes a
// sample: which road, how far past the road's previous slot (a few slots, a
// few blocks, or most of the slot range) and the rel, a multiple of 1/128
// so that rels at exactly 1 occur. Slots stay below 2³¹, strictly
// increasing per road.
func fuzzSeries(data []byte) [][]sample {
	series := make([][]sample, 2)
	next := []int64{0, 0}
	for ; len(data) >= 3; data = data[3:] {
		r := data[0] & 1
		gap := int64(data[1])
		switch data[0] >> 1 & 3 {
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
		series := fuzzSeries(data)
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
