package history

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/roadnet"
	"repro/internal/timeslot"
)

// Binary format (little-endian):
//
//	magic "THDB" | version u32 | epochUnix i64 | slotWidthNs i64 | numRoads u32 |
//	profile cells (mean f32, std f32, n u32, nUp u32) × numRoads×numProfileClasses |
//	overall f32 × numRoads |
//	per road: seriesLen u32 then (slot i32, rel f32) × seriesLen
//
// A series lists its samples in strictly increasing slot order, slots are
// non-negative and rels are never NaN; ReadDB rejects anything else.
const (
	codecMagic   = "THDB"
	codecVersion = 1
)

// codecMaxProfileCells bounds a header's profile table, numRoads ×
// NumProfileClasses cells. A million roads at 10-minute slots need 2.9·10⁸;
// a header past the bound (a 1 ns slot width, say, whose 1.7·10¹⁴ classes
// per road overflow an int at 53,376 roads) is refused before any count is
// multiplied.
const codecMaxProfileCells = 1 << 30

// codecMaxPrealloc caps any single up-front slice allocation while decoding.
// Declared lengths beyond it must be paid for with actual input bytes — the
// decoder grows the slices incrementally and fails on the first missing
// byte — so a handful of attacker-controlled header bytes cannot demand
// gigabytes of memory before the truncation is noticed.
const codecMaxPrealloc = 1 << 16

// WriteTo serialises the database; the returned count is bytes written.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if _, err := bw.WriteString(codecMagic); err != nil {
		return n, err
	}
	n += int64(len(codecMagic))
	hdr := []any{
		uint32(codecVersion),
		db.cal.Epoch().Unix(),
		int64(db.cal.Width()),
		uint32(db.numRoads),
	}
	for _, v := range hdr {
		if err := write(v); err != nil {
			return n, err
		}
	}
	for _, cells := range db.profile {
		for _, c := range cells {
			for _, v := range []any{c.mean, c.std, c.n, c.nUp} {
				if err := write(v); err != nil {
					return n, err
				}
			}
		}
	}
	if err := write(db.overall); err != nil {
		return n, err
	}
	var rec []byte
	for r, s := range db.series {
		rec = binary.LittleEndian.AppendUint32(rec[:0], uint32(len(s.rel)))
		db.EachSample(roadnet.RoadID(r), func(slot int32, rel float32) {
			rec = binary.LittleEndian.AppendUint32(rec, uint32(slot))
			rec = binary.LittleEndian.AppendUint32(rec, math.Float32bits(rel))
		})
		if _, err := bw.Write(rec); err != nil {
			return n, err
		}
		n += int64(len(rec))
	}
	return n, bw.Flush()
}

// ReadDB deserialises a database written by WriteTo.
func ReadDB(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(codecMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("history: reading magic: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("history: bad magic %q", magic)
	}
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }
	var version uint32
	if err := read(&version); err != nil {
		return nil, err
	}
	if version != codecVersion {
		return nil, fmt.Errorf("history: unsupported version %d", version)
	}
	var epochUnix, widthNs int64
	var numRoads uint32
	if err := read(&epochUnix); err != nil {
		return nil, err
	}
	if err := read(&widthNs); err != nil {
		return nil, err
	}
	if err := read(&numRoads); err != nil {
		return nil, err
	}
	if numRoads == 0 || numRoads > 1<<24 {
		return nil, fmt.Errorf("history: implausible road count %d", numRoads)
	}
	cal, err := timeslot.NewCalendar(time.Unix(epochUnix, 0).UTC(), time.Duration(widthNs))
	if err != nil {
		return nil, fmt.Errorf("history: reconstructing calendar: %w", err)
	}
	classes := cal.NumProfileClasses()
	if classes > codecMaxProfileCells/int(numRoads) {
		return nil, fmt.Errorf("history: implausible profile table of %d roads × %d classes", numRoads, classes)
	}
	db := &DB{
		cal:      cal,
		numRoads: int(numRoads),
		profile:  make([][]profileCell, 0, min(int(numRoads), codecMaxPrealloc)),
		overall:  make([]float32, 0, min(int(numRoads), codecMaxPrealloc)),
		series:   make([]roadSeries, 0, min(int(numRoads), codecMaxPrealloc)),
	}
	// Each road's cells are allocated on their own, as Finalize allocates
	// them.
	for road := 0; road < int(numRoads); road++ {
		cells := make([]profileCell, 0, min(classes, codecMaxPrealloc))
		for range classes {
			var c profileCell
			if err := read(&c.mean); err != nil {
				return nil, err
			}
			if err := read(&c.std); err != nil {
				return nil, err
			}
			if err := read(&c.n); err != nil {
				return nil, err
			}
			if err := read(&c.nUp); err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
		db.profile = append(db.profile, cells)
	}
	var fbuf [4096]float32
	for got := 0; got < int(numRoads); {
		n := min(int(numRoads)-got, len(fbuf))
		if err := read(fbuf[:n]); err != nil {
			return nil, err
		}
		db.overall = append(db.overall, fbuf[:n]...)
		got += n
	}
	var rec [8 * 2048]byte
	for road := 0; road < int(numRoads); road++ {
		var sl uint32
		if err := read(&sl); err != nil {
			return nil, err
		}
		if sl > 1<<26 {
			return nil, fmt.Errorf("history: implausible series length %d", sl)
		}
		s := roadSeries{rel: make([]float32, 0, min(int(sl), codecMaxPrealloc))}
		last := int32(-1)
		for got := 0; got < int(sl); {
			n := min(int(sl)-got, len(rec)/8)
			if _, err := io.ReadFull(br, rec[:8*n]); err != nil {
				return nil, err
			}
			for k := 0; k < n; k++ {
				slot := int32(binary.LittleEndian.Uint32(rec[8*k:]))
				rel := math.Float32frombits(binary.LittleEndian.Uint32(rec[8*k+4:]))
				switch {
				case slot < 0:
					return nil, fmt.Errorf("history: road %d has negative slot %d", road, slot)
				case slot <= last:
					return nil, fmt.Errorf("history: road %d lists slot %d after slot %d", road, slot, last)
				case math.IsNaN(float64(rel)):
					return nil, fmt.Errorf("history: road %d has a NaN rel at slot %d", road, slot)
				}
				s.add(slot, rel)
				last = slot
			}
			got += n
		}
		db.series = append(db.series, s)
	}
	return db, nil
}
