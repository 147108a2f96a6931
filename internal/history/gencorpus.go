//go:build ignore

// Generates the checked-in seed corpus for FuzzReadDB under
// testdata/fuzz/FuzzReadDB: a valid database in the current codec version
// plus the adversarial shapes the decoder must reject cheaply (truncation,
// bad magic, a decompression-bomb header), named seed-v2-*. The seed-*
// entries without a version are the same shapes in version 1, written by
// its encoder; they are kept so the fuzzer keeps exercising the version-1
// decoder. Run from this directory:
//
//	go run gencorpus.go
package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/history"
	"repro/internal/timeslot"
)

func main() {
	log.SetFlags(0)
	cal := timeslot.MustCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), 10*time.Minute)
	b, err := history.NewBuilder(cal, 2)
	if err != nil {
		log.Fatal(err)
	}
	for day := 0; day < 2; day++ {
		base := day * cal.SlotsPerDay()
		if err := b.Add(0, base, 10.5); err != nil {
			log.Fatal(err)
		}
		if err := b.Add(1, base+1, 7.25); err != nil {
			log.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := b.Finalize().WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	valid := buf.Bytes()

	// numRoads sits at offset 24 (magic 4 + version 4 + epoch 8 + width 8),
	// little-endian; the bomb declares ~16M roads with no payload behind.
	bomb := append([]byte(nil), valid[:28]...)
	bomb[24], bomb[25], bomb[26], bomb[27] = 0xff, 0xff, 0xff, 0x00

	entries := map[string][]byte{
		"seed-v2-valid":     valid,
		"seed-v2-truncated": valid[:len(valid)/2],
		"seed-v2-bad-magic": append([]byte("XHDB"), valid[4:]...),
		"seed-v2-bomb":      bomb,
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadDB")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	for name, data := range entries {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s (%d bytes)", filepath.Join(dir, name), len(data))
	}
}
