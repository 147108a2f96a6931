package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile with fewer is mostly noise, so the run fails rather than report it.
const minTail = 10

// failedMS is the latency recorded for a failed request: it lands in the
// histogram's overflow bucket, beyond every latency limit.
const failedMS = obs.DefHDRMax * 1e3

// hist records samples, in ms, into an HDR histogram of the shape cmd/loadgen
// and the server's own latency families use: 1 µs to 100 s at about 1%
// relative error. Quantiles are read from the snapshot, so a percentile here
// is computed as theirs are.
func hist(samplesMS []float64) obs.HDRSnapshot {
	h := obs.NewHDRHistogram(obs.DefHDRMin, obs.DefHDRMax, obs.DefHDRGrowth)
	for _, v := range samplesMS {
		h.Observe(v / 1e3)
	}
	return h.Snapshot()
}

// percentile returns the nearest-rank q-quantile of s in ms, or an error when
// fewer than tail samples rank above it.
func percentile(s obs.HDRSnapshot, q float64, tail int) (float64, error) {
	n := s.Count()
	rank := max(1, uint64(math.Ceil(q*float64(n))))
	if n < rank+uint64(tail) {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, n, n-min(n, rank), tail)
	}
	return s.Quantile(q) * 1e3, nil
}

// metricList collects metrics in order, and the first error computing one.
type metricList struct {
	tail int // samples required beyond a reported percentile
	ms   []metric
	err  error
}

func (l *metricList) add(name string, v float64, unit string) {
	l.ms = append(l.ms, metric{name: name, value: v, unit: unit})
}

func (l *metricList) percentile(name string, samplesMS []float64, q float64, unit string) {
	v, err := percentile(hist(samplesMS), q, l.tail)
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("%s: %w", name, err)
	}
	l.add(name, v, unit)
}

func nsToMS(ns int64) float64       { return float64(ns) / 1e6 }
func durMS(d time.Duration) float64 { return float64(d) / 1e6 }

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
