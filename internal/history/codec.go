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

// Binary format (little-endian), version 2:
//
//	magic "THDB" | version u32 | epochUnix i64 | slotWidthNs i64 | numRoads u32 |
//	profile cells (mean f32, n u16, nUp u16) × numRoads×numProfileClasses |
//	overall f32 × numRoads |
//	per road: seriesLen u32 then (slot i32, rel f32) × seriesLen
//
// A road's cells are consecutive, in profile-class order. A series lists
// its samples in strictly increasing slot order, slots are non-negative and
// rels are never NaN; ReadDB rejects anything else.
//
// ReadDB also reads version 1, whose cells are (mean f32, std f32, n u32,
// nUp u32): it skips std, which nothing reads, and saturates the counts at
// math.MaxUint16 as Finalize does.
const (
	codecMagic   = "THDB"
	codecVersion = 2
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

// WriteTo serialises the database in the current version; the returned
// count is bytes written. It encodes a record at a time — the header, one
// road's cells, the overall means, one road's series — into one buffer.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	put := func(rec []byte) error {
		m, err := bw.Write(rec)
		n += int64(m)
		return err
	}
	rec := []byte(codecMagic)
	rec = binary.LittleEndian.AppendUint32(rec, codecVersion)
	rec = binary.LittleEndian.AppendUint64(rec, uint64(db.cal.Epoch().Unix()))
	rec = binary.LittleEndian.AppendUint64(rec, uint64(db.cal.Width()))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(db.numRoads))
	if err := put(rec); err != nil {
		return n, err
	}
	for _, cells := range db.profile {
		rec = rec[:0]
		for _, c := range cells {
			rec = binary.LittleEndian.AppendUint32(rec, math.Float32bits(c.mean))
			rec = binary.LittleEndian.AppendUint16(rec, c.n)
			rec = binary.LittleEndian.AppendUint16(rec, c.nUp)
		}
		if err := put(rec); err != nil {
			return n, err
		}
	}
	rec = rec[:0]
	for _, m := range db.overall {
		rec = binary.LittleEndian.AppendUint32(rec, math.Float32bits(m))
	}
	if err := put(rec); err != nil {
		return n, err
	}
	for r, s := range db.series {
		rec = binary.LittleEndian.AppendUint32(rec[:0], uint32(len(s.rel)))
		db.EachSample(roadnet.RoadID(r), func(slot int32, rel float32) {
			rec = binary.LittleEndian.AppendUint32(rec, uint32(slot))
			rec = binary.LittleEndian.AppendUint32(rec, math.Float32bits(rel))
		})
		if err := put(rec); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// decodeCell decodes one profile cell encoded in the given version.
func decodeCell(version uint32, b []byte) profileCell {
	c := profileCell{mean: math.Float32frombits(binary.LittleEndian.Uint32(b))}
	if version == 1 { // mean, std, n u32, nUp u32
		c.n = saturate16(binary.LittleEndian.Uint32(b[8:]))
		c.nUp = saturate16(binary.LittleEndian.Uint32(b[12:]))
	} else {
		c.n = binary.LittleEndian.Uint16(b[4:])
		c.nUp = binary.LittleEndian.Uint16(b[6:])
	}
	return c
}

// ReadDB deserialises a database written by WriteTo, in the current
// version or version 1.
func ReadDB(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	var rec [8 * 2048]byte
	// The header: magic, version, epoch, slot width and road count.
	if _, err := io.ReadFull(br, rec[:len(codecMagic)]); err != nil {
		return nil, fmt.Errorf("history: reading magic: %w", err)
	}
	if magic := rec[:len(codecMagic)]; string(magic) != codecMagic {
		return nil, fmt.Errorf("history: bad magic %q", magic)
	}
	if _, err := io.ReadFull(br, rec[:4]); err != nil {
		return nil, err
	}
	version := binary.LittleEndian.Uint32(rec[:])
	var size int // an encoded profile cell's bytes
	switch version {
	case 1:
		size = 16
	case codecVersion:
		size = 8
	default:
		return nil, fmt.Errorf("history: unsupported version %d", version)
	}
	if _, err := io.ReadFull(br, rec[:20]); err != nil {
		return nil, err
	}
	epochUnix := int64(binary.LittleEndian.Uint64(rec[:]))
	widthNs := int64(binary.LittleEndian.Uint64(rec[8:]))
	numRoads := binary.LittleEndian.Uint32(rec[16:])
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
	// them, and read a buffer at a time: one read a road on the served
	// calendar's 288 classes.
	for road := 0; road < int(numRoads); road++ {
		cells := make([]profileCell, 0, min(classes, codecMaxPrealloc))
		for len(cells) < classes {
			n := min(classes-len(cells), len(rec)/size)
			if _, err := io.ReadFull(br, rec[:size*n]); err != nil {
				return nil, err
			}
			for k := range n {
				cells = append(cells, decodeCell(version, rec[size*k:]))
			}
		}
		db.profile = append(db.profile, cells)
	}
	for got := 0; got < int(numRoads); {
		n := min(int(numRoads)-got, len(rec)/4)
		if _, err := io.ReadFull(br, rec[:4*n]); err != nil {
			return nil, err
		}
		for k := range n {
			db.overall = append(db.overall, math.Float32frombits(binary.LittleEndian.Uint32(rec[4*k:])))
		}
		got += n
	}
	for road := 0; road < int(numRoads); road++ {
		if _, err := io.ReadFull(br, rec[:4]); err != nil {
			return nil, err
		}
		sl := binary.LittleEndian.Uint32(rec[:])
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
