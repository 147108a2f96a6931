// Package eval provides the evaluation machinery shared by tests, the
// benchmark harness and the experiment runner: error metrics accumulated
// over roads and slots, trend-accuracy scoring, and plain-text table
// rendering for the paper's tables and figure series.
package eval

import (
	"fmt"
	"math"

	"repro/internal/roadnet"
)

// Metrics summarises estimation error over a set of (estimate, truth) pairs.
type Metrics struct {
	MAE  float64 // mean absolute error, m/s
	RMSE float64 // root mean squared error, m/s
	MAPE float64 // mean absolute percentage error, fraction
	N    int     // scored pairs
}

// Accumulator builds Metrics incrementally across roads and slots.
type Accumulator struct {
	absSum, sqSum, pctSum float64
	n                     int
}

// Add scores one (estimate, truth) pair. Pairs with non-positive truth or
// estimate are skipped: they indicate missing history rather than error.
func (a *Accumulator) Add(est, truth float64) {
	if truth <= 0 || est <= 0 || math.IsNaN(est) || math.IsNaN(truth) {
		return
	}
	d := est - truth
	a.absSum += math.Abs(d)
	a.sqSum += d * d
	a.pctSum += math.Abs(d) / truth
	a.n++
}

// AddSlice scores every road, skipping those in exclude (typically seeds).
func (a *Accumulator) AddSlice(est, truth []float64, exclude map[roadnet.RoadID]bool) {
	for r := range est {
		if exclude != nil && exclude[roadnet.RoadID(r)] {
			continue
		}
		a.Add(est[r], truth[r])
	}
}

// Merge folds another accumulator into a.
func (a *Accumulator) Merge(b *Accumulator) {
	a.absSum += b.absSum
	a.sqSum += b.sqSum
	a.pctSum += b.pctSum
	a.n += b.n
}

// Metrics finalises the accumulated statistics.
func (a *Accumulator) Metrics() Metrics {
	if a.n == 0 {
		return Metrics{}
	}
	fn := float64(a.n)
	return Metrics{
		MAE:  a.absSum / fn,
		RMSE: math.Sqrt(a.sqSum / fn),
		MAPE: a.pctSum / fn,
		N:    a.n,
	}
}

// TrueTrends derives ground-truth trends from true speeds and historical
// means: up iff speed ≥ mean. Roads without history default to up=false and
// should be excluded from scoring via the ok slice.
func TrueTrends(truth []float64, mean func(r roadnet.RoadID) (float64, bool)) (up []bool, ok []bool) {
	up = make([]bool, len(truth))
	ok = make([]bool, len(truth))
	for r := range truth {
		m, have := mean(roadnet.RoadID(r))
		if !have || m <= 0 {
			continue
		}
		ok[r] = true
		up[r] = truth[r] >= m
	}
	return up, ok
}

// Improvement returns the fractional MAE reduction of a over b (positive
// when a is better); the paper's "40% more accurate" statements are this
// number.
func Improvement(a, b Metrics) float64 {
	if b.MAE == 0 {
		return 0
	}
	return (b.MAE - a.MAE) / b.MAE
}

// Fmt renders metrics compactly for experiment logs.
func (m Metrics) String() string {
	return fmt.Sprintf("MAE=%.3f RMSE=%.3f MAPE=%.1f%% (n=%d)", m.MAE, m.RMSE, m.MAPE*100, m.N)
}
