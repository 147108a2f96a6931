package dataset

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/history"
	"repro/internal/roadnet"
)

// A dataset directory holds the road network as JSON (roadnet.WriteJSON)
// and the historical speed database in the history codec's current version
// (history.DB.WriteTo), under these names.
const (
	networkFile = "network.json"
	historyFile = "history.thdb"
)

// Save writes net and db as the dataset directory dir, creating dir if it
// does not exist and replacing the two files if they do.
func Save(dir string, net *roadnet.Network, db *history.DB) error {
	var netBuf, dbBuf bytes.Buffer
	if err := roadnet.WriteJSON(&netBuf, net); err != nil {
		return fmt.Errorf("dataset: encoding the network: %w", err)
	}
	if _, err := db.WriteTo(&dbBuf); err != nil {
		return fmt.Errorf("dataset: encoding the history: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, networkFile), netBuf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, historyFile), dbBuf.Bytes(), 0o644)
}

// Load reads the dataset directory dir that Save wrote.
func Load(dir string) (*roadnet.Network, *history.DB, error) {
	raw, err := os.ReadFile(filepath.Join(dir, networkFile))
	if err != nil {
		return nil, nil, err
	}
	net, err := roadnet.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: reading %s: %w", networkFile, err)
	}
	if raw, err = os.ReadFile(filepath.Join(dir, historyFile)); err != nil {
		return nil, nil, err
	}
	db, err := history.ReadDB(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: reading %s: %w", historyFile, err)
	}
	return net, db, nil
}
