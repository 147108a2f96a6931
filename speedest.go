// Package speedest is the public facade of the TrendSpeed reproduction:
// crowdsourcing-based real-time urban traffic speed estimation, from trends
// to speeds (Hu, Li, Bao, Cui, Feng — ICDE 2016).
//
// The package re-exports the high-level API from the internal packages so a
// downstream user needs a single import. Every call that does real work takes
// a context, which bounds it:
//
//	v, err := speedest.New(net, db, speedest.DefaultOptions())
//	seeds, err := v.SelectSeeds(ctx, k)                 // budget-K seed selection
//	reports := askYourCrowd(seeds)                      // crowdsource seed speeds
//	res, err := v.EstimateFromCrowd(ctx, slot, reports) // network-wide speeds
//
// New returns a frozen View: one trained version, no lifecycle. A Store
// publishes a versioned View and can fold new crowd observations into a
// rebuilt successor without interrupting estimation; each round runs on the
// View resolved at entry:
//
//	st, err := speedest.NewStore(net, db, speedest.DefaultOptions())
//	st.Ingest(speedest.Observation{Road: 12, Slot: slot, Speed: 8.5})
//	st.Start(speedest.StoreConfig{RebuildMinObs: 1000}) // background rebuilds
//	defer st.Close()
//	res, err := st.View().Estimate(ctx, slot, seedSpeeds)
//
// Use BuildDataset (or the GPS pipeline in internal/gps via cmd/datagen) to
// create synthetic benchmark datasets; see examples/ for runnable
// walkthroughs and DESIGN.md for the system architecture.
package speedest

import (
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/dataset"
	"repro/internal/history"
	"repro/internal/roadnet"
	"repro/internal/timeslot"
)

// Model is one district's trained artifact: correlation graph, trend model,
// hierarchical linear model and seed selection, stamped with a monotonic
// version. View.Shard(0) is the whole city's Model when unsharded.
type Model = core.Model

// View is one trained version of the system and the estimation round that
// runs on it: one Model when unsharded, or K district Models stitched at
// their boundaries when Options.Shards > 1. A Store publishes successive
// Views.
type View = core.View

// Store publishes the current View and rebuilds successors from ingested
// observations without blocking estimation; on sharded deployments each
// district rebuilds and swaps independently.
type Store = core.Store

// StoreConfig arms a Store's background rebuild triggers.
type StoreConfig = core.StoreConfig

// Observation is one crowd speed report ingested for a future rebuild.
type Observation = core.Observation

// Options configures model construction; start from DefaultOptions.
type Options = core.Options

// Estimate is one estimation round's result.
type Estimate = core.Estimate

// EstimateOptions carries per-round overrides (ablations).
type EstimateOptions = core.EstimateOptions

// Network is an immutable road network.
type Network = roadnet.Network

// RoadID identifies a road segment within a Network.
type RoadID = roadnet.RoadID

// HistoryDB is the historical speed database.
type HistoryDB = history.DB

// Calendar discretises time into slots.
type Calendar = timeslot.Calendar

// Dataset bundles a synthetic city, its ground-truth traffic and a sampled
// history; the test and benchmark fixture.
type Dataset = dataset.Dataset

// DatasetConfig parameterises BuildDataset.
type DatasetConfig = dataset.Config

// New builds a frozen version-1 View from a network and its historical
// database. This is the expensive offline phase; estimation rounds are cheap
// enough for real-time use.
func New(net *Network, db *HistoryDB, opts Options) (*View, error) {
	return core.NewView(net, db, opts)
}

// NewStore builds the initial View and wraps it in a Store ready for
// observation ingestion and zero-downtime background rebuilds.
func NewStore(net *Network, db *HistoryDB, opts Options) (*Store, error) {
	return core.NewStore(net, db, opts)
}

// DefaultOptions returns the configuration used by the paper-reproduction
// experiments.
func DefaultOptions() Options { return core.DefaultOptions() }

// BuildDataset assembles a synthetic benchmark dataset (city + traffic +
// history).
func BuildDataset(cfg DatasetConfig) (*Dataset, error) { return dataset.Build(cfg) }

// DefaultDatasetConfig returns a small, fast dataset configuration.
func DefaultDatasetConfig() DatasetConfig { return dataset.DefaultConfig() }

// BCityDataset returns the large benchmark dataset configuration (the
// Beijing stand-in).
func BCityDataset() DatasetConfig { return dataset.BCity() }

// TCityDataset returns the medium benchmark dataset configuration (the
// Tianjin stand-in).
func TCityDataset() DatasetConfig { return dataset.TCity() }

// CrowdPlatform simulates the crowdsourcing service that answers seed-speed
// queries (see internal/crowd for the worker model).
type CrowdPlatform = crowd.Platform

// CrowdConfig parameterises the simulated crowd.
type CrowdConfig = crowd.Config

// CrowdReport is one aggregated crowd answer.
type CrowdReport = crowd.Report

// NewCrowd creates a simulated crowdsourcing platform.
func NewCrowd(cfg CrowdConfig) (*CrowdPlatform, error) { return crowd.New(cfg) }

// DefaultCrowdConfig returns a realistic, mildly adversarial crowd.
func DefaultCrowdConfig() CrowdConfig { return crowd.DefaultConfig() }
