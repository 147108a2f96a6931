// Package dataset assembles complete benchmark datasets: a synthetic city,
// a ground-truth traffic simulation, and a historical database sampled from
// it. It is the shared fixture factory for tests, examples and the
// experiment harness.
//
// The history is acquired by probe sampling: each road is observed directly
// in a random subset of history slots with multiplicative observation
// noise. This is statistically equivalent to a dense, well-matched
// probe-fleet feed and fast enough for the large experiments.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/history"
	"repro/internal/roadnet"
	"repro/internal/timeslot"
	"repro/internal/trafficsim"
)

// Config parameterises dataset assembly.
type Config struct {
	Net roadnet.GenerateConfig
	Sim trafficsim.Config
	// SlotWidth is the calendar slot width; zero means
	// timeslot.DefaultSlotWidth.
	SlotWidth time.Duration
	// HistoryDays is the length of the history period sampled into the DB.
	HistoryDays int
	// CoveragePerSlot is the probability a given road is observed in a given
	// history slot (probe fleets see busy roads often, quiet ones rarely;
	// major classes get a boost on top of this base rate).
	CoveragePerSlot float64
	// ObsNoise is the standard deviation of the multiplicative log-normal
	// observation error on sampled speeds.
	ObsNoise float64
	// Seed drives the sampling PRNG (the simulator has its own seed).
	Seed int64
}

// DefaultConfig returns a small, fast dataset for tests.
func DefaultConfig() Config {
	net := roadnet.DefaultGenerateConfig()
	return Config{
		Net:             net,
		Sim:             trafficsim.DefaultConfig(),
		HistoryDays:     14,
		CoveragePerSlot: 0.55,
		ObsNoise:        0.06,
		Seed:            99,
	}
}

// BCity returns the large benchmark dataset configuration (Beijing stand-in).
func BCity() Config {
	c := DefaultConfig()
	c.Net = roadnet.BCityConfig()
	c.Sim.Seed = 101
	c.HistoryDays = 14
	return c
}

// TCity returns the medium benchmark dataset configuration (Tianjin
// stand-in).
func TCity() Config {
	c := DefaultConfig()
	c.Net = roadnet.TCityConfig()
	c.Sim.Seed = 202
	c.HistoryDays = 14
	return c
}

// Preset returns the named configuration, as the commands' -city flag names
// it: "b" (BCity), "t" (TCity) or "default" (DefaultConfig).
func Preset(name string) (Config, error) {
	switch name {
	case "b":
		return BCity(), nil
	case "t":
		return TCity(), nil
	case "default":
		return DefaultConfig(), nil
	}
	return Config{}, fmt.Errorf("dataset: unknown city preset %q (want b, t or default)", name)
}

// Validate rejects unusable configurations.
func (c *Config) Validate() error {
	if c.HistoryDays < 1 {
		return fmt.Errorf("dataset: HistoryDays must be ≥ 1, got %d", c.HistoryDays)
	}
	if c.CoveragePerSlot <= 0 || c.CoveragePerSlot > 1 {
		return fmt.Errorf("dataset: CoveragePerSlot must be in (0, 1], got %v", c.CoveragePerSlot)
	}
	if c.ObsNoise < 0 {
		return fmt.Errorf("dataset: ObsNoise must be ≥ 0, got %v", c.ObsNoise)
	}
	return nil
}

// Dataset is a fully assembled benchmark dataset. After Build the simulator
// is positioned at the first slot after the history period; NextTruth steps
// it through the evaluation period.
type Dataset struct {
	Net *roadnet.Network
	Cal *timeslot.Calendar
	DB  *history.DB

	sim   *trafficsim.Simulator
	truth []float64 // copy of the current slot's true speeds
}

// Build assembles a dataset.
func Build(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := roadnet.Generate(cfg.Net)
	if err != nil {
		return nil, fmt.Errorf("dataset: generating network: %w", err)
	}
	width := cfg.SlotWidth
	if width == 0 {
		width = timeslot.DefaultSlotWidth
	}
	cal, err := timeslot.NewCalendar(time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC), width)
	if err != nil {
		return nil, err
	}
	sim, err := trafficsim.New(net, cal, cfg.Sim)
	if err != nil {
		return nil, err
	}
	builder, err := history.NewBuilder(cal, net.NumRoads())
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	historySlots := cfg.HistoryDays * cal.SlotsPerDay()
	n := net.NumRoads()
	coverage := make([]float64, n)
	for i, r := range net.Roads() {
		coverage[i] = min(cfg.CoveragePerSlot*classCoverageBoost(r.Class), 1)
		builder.Grow(roadnet.RoadID(i), expectedSamples(historySlots, coverage[i]))
	}
	sampled := make([]roadnet.RoadID, 0, n)
	noise := make([]float64, 0, n)
	speeds := make([]float64, n)
	for slot := 0; slot < historySlots; slot++ {
		// The slot's coverage and noise draws come first, so the simulator
		// evaluates only the roads the history samples, in one call.
		sampled, noise = sampled[:0], noise[:0]
		for i, p := range coverage {
			if rng.Float64() >= p {
				continue
			}
			sampled = append(sampled, roadnet.RoadID(i))
			noise = append(noise, rng.NormFloat64())
		}
		sim.SpeedsOf(sampled, speeds)
		for k, id := range sampled {
			observed := speeds[k] * math.Exp(noise[k]*cfg.ObsNoise)
			if err := builder.Add(id, slot, observed); err != nil {
				return nil, err
			}
		}
		sim.Step()
	}

	d := &Dataset{
		Net: net, Cal: cal, DB: builder.Finalize(),
		sim:   sim,
		truth: make([]float64, net.NumRoads()),
	}
	copy(d.truth, sim.Speeds())
	return d, nil
}

// expectedSamples returns how many of slots a road observed with
// probability p per slot collects, four standard deviations above the
// mean, so a road's log is sized once.
func expectedSamples(slots int, p float64) int {
	mean := float64(slots) * p
	return int(mean+4*math.Sqrt(mean*(1-p))) + 1
}

// classCoverageBoost makes probe coverage denser on major roads, as taxi
// fleets concentrate there.
func classCoverageBoost(c roadnet.RoadClass) float64 {
	switch c {
	case roadnet.Highway:
		return 1.5
	case roadnet.Arterial:
		return 1.3
	case roadnet.Collector:
		return 1.1
	default:
		return 1.0
	}
}

// Slot returns the absolute slot index of the current truth.
func (d *Dataset) Slot() int { return d.sim.Slot() }

// Truth returns the true speeds of the current slot; callers must not modify
// the slice.
func (d *Dataset) Truth() []float64 { return d.truth }

// NextTruth advances the simulation one slot and returns the new slot index
// and its true speeds (valid until the next call).
func (d *Dataset) NextTruth() (slot int, speeds []float64) {
	d.sim.Step()
	copy(d.truth, d.sim.Speeds())
	return d.sim.Slot(), d.truth
}
