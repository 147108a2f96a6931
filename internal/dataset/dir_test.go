package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestSaveLoadRoundTrip: Load reads what Save writes, and the loaded
// network and history re-encode to the bytes on disk. A directory without
// the files is an error.
func TestSaveLoadRoundTrip(t *testing.T) {
	d, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "city")
	if err := Save(dir, d.Net, d.DB); err != nil {
		t.Fatalf("Save: %v", err)
	}
	net, db, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if net.NumRoads() != d.Net.NumRoads() || db.NumRoads() != d.Net.NumRoads() {
		t.Fatalf("loaded %d roads and a history of %d; saved %d", net.NumRoads(), db.NumRoads(), d.Net.NumRoads())
	}
	again := filepath.Join(t.TempDir(), "again")
	if err := Save(again, net, db); err != nil {
		t.Fatalf("Save of the loaded dataset: %v", err)
	}
	for _, name := range []string{networkFile, historyFile} {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(again, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the loaded dataset re-encodes to %d bytes unlike the %d saved", name, len(got), len(want))
		}
	}

	if _, _, err := Load(t.TempDir()); err == nil {
		t.Error("an empty directory loaded")
	}
}
