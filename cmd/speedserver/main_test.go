package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/roadnet"
)

// TestLoadDatagenDirectory: load reads what cmd/datagen writes, the network
// as JSON and the history in the current codec, back to the same roads and
// a history that re-encodes to the same bytes. A directory without them is
// an error.
func TestLoadDatagenDirectory(t *testing.T) {
	cfg := dataset.DefaultConfig()
	cfg.Net.BlocksX, cfg.Net.BlocksY = 5, 4
	cfg.HistoryDays = 3
	d, err := dataset.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "network.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := roadnet.WriteJSON(f, d.Net); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Create(filepath.Join(dir, "history.thdb"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DB.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	net, db, err := load(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if net.NumRoads() != d.Net.NumRoads() || db.NumRoads() != d.Net.NumRoads() {
		t.Fatalf("loaded %d roads and a history of %d; wrote %d", net.NumRoads(), db.NumRoads(), d.Net.NumRoads())
	}
	var want, got bytes.Buffer
	if _, err := d.DB.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := db.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("the loaded history re-encodes to %d bytes unlike the %d written", got.Len(), want.Len())
	}

	if _, _, err := load(t.TempDir()); err == nil {
		t.Error("an empty directory loaded")
	}
}
