package obs

import (
	"fmt"
	"math"
	"sync/atomic"
)

// HDRHistogram is a log-bucketed latency histogram in the spirit of Gil
// Tene's HdrHistogram: bucket boundaries grow geometrically, so the bucket a
// value lands in identifies it to within a fixed *relative* error at every
// scale from microseconds to minutes. The fixed-bucket Histogram cannot do
// that — its Prometheus default buckets are two orders of magnitude apart at
// the tail, which is exactly where p99.9 lives.
//
// Observe is lock-free: one atomic add on the value's bucket plus atomic
// sum/count/max updates, so hot serving paths can record into it without
// contention. Snapshot reads the buckets without a lock, so a snapshot taken
// while writers are active may be torn by a few in-flight observations;
// quantiles are computed from the snapshot's own bucket total, so they are
// always internally consistent.
//
// With the default growth of 1.02 the geometric bucket midpoint is at most
// √1.02−1 ≈ 1.0% away from any value in the bucket, which is the "~1%
// relative error" contract DefHDR* encodes; the [1µs, 100s] default range
// costs 933 buckets ≈ 7.5 KiB per child.
type HDRHistogram struct {
	min     float64 // lower bound of the first log bucket
	max     float64 // values ≥ max land in the overflow bucket
	growth  float64 // geometric bucket growth factor (> 1)
	logMin  float64 // ln(min), cached for Observe
	invLogG float64 // 1/ln(growth), cached for Observe

	// buckets[0] is the underflow bucket (v < min), buckets[1..n] cover
	// (min·g^(i−1), min·g^i] and buckets[n+1] is the overflow bucket.
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomicFloat
	maxSeen atomicFloat // largest value observed (0 until first Observe)
}

// Default HDR shape for latency-in-seconds histograms: 1 µs to 100 s at ~1%
// relative error. Serving latencies below a microsecond are measurement
// noise, and anything above 100 s has long since blown every deadline this
// system hands out.
const (
	DefHDRMin    = 1e-6
	DefHDRMax    = 100
	DefHDRGrowth = 1.02
)

// DefQuantiles are the quantiles rendered in the Prometheus exposition and
// JSON snapshots of registry-owned HDR histograms.
var DefQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// NewHDRHistogram returns a histogram with log buckets growing by the given
// factor from min, with values at or above max clamped into one overflow
// bucket. Panics on a nonsensical shape — like the rest of the obs
// constructors, a bad shape is a programming error, not a runtime condition.
func NewHDRHistogram(min, max, growth float64) *HDRHistogram {
	if !(min > 0) || !(max > min) || !(growth > 1) {
		panic(fmt.Sprintf("obs: invalid HDR histogram shape min=%v max=%v growth=%v", min, max, growth))
	}
	logBuckets := int(math.Ceil(math.Log(max/min) / math.Log(growth)))
	h := &HDRHistogram{
		min: min, max: max, growth: growth,
		logMin:  math.Log(min),
		invLogG: 1 / math.Log(growth),
		buckets: make([]atomic.Uint64, logBuckets+2),
	}
	return h
}

// bucketIndex maps a value to its bucket. Negative values (clock skew) and
// values below min land in the underflow bucket.
func (h *HDRHistogram) bucketIndex(v float64) int {
	if v < h.min {
		return 0
	}
	if v >= h.max {
		return len(h.buckets) - 1
	}
	i := 1 + int((math.Log(v)-h.logMin)*h.invLogG)
	// Clamp floating-point edge cases at the boundaries.
	if i < 1 {
		i = 1
	}
	if i > len(h.buckets)-2 {
		i = len(h.buckets) - 2
	}
	return i
}

// representative returns the value reported for a bucket: the geometric
// midpoint of its range, which bounds the relative error at √growth−1.
func (h *HDRHistogram) representative(i int) float64 {
	switch i {
	case 0:
		return h.min
	case len(h.buckets) - 1:
		return h.max
	}
	return math.Exp(h.logMin + (float64(i-1)+0.5)*(1/h.invLogG))
}

// Observe records one sample. NaN and ±Inf are dropped.
func (h *HDRHistogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.buckets[h.bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		old := h.maxSeen.Load()
		if v <= old || h.maxSeen.bits.CompareAndSwap(math.Float64bits(old), math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *HDRHistogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *HDRHistogram) Sum() float64 { return h.sum.Load() }

// Quantile returns the p-quantile (p in [0, 1]) of the current contents; see
// HDRSnapshot.Quantile for the semantics.
func (h *HDRHistogram) Quantile(p float64) float64 { return h.Snapshot().Quantile(p) }

// Snapshot captures the histogram as plain data.
func (h *HDRHistogram) Snapshot() HDRSnapshot {
	s := HDRSnapshot{
		Min: h.min, Max: h.max, Growth: h.growth,
		Counts:  make([]uint64, len(h.buckets)),
		Sum:     h.sum.Load(),
		MaxSeen: h.maxSeen.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] += h.buckets[i].Load()
	}
	return s
}

// HDRSnapshot is one histogram's state as plain data: JSON-serialisable, and
// the unit quantiles are computed from. Counts[0] is the underflow bucket and
// Counts[len−1] the overflow bucket (see HDRHistogram).
type HDRSnapshot struct {
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Growth  float64  `json:"growth"`
	Counts  []uint64 `json:"counts"`
	Sum     float64  `json:"sum"`
	MaxSeen float64  `json:"max_seen"`
}

// Count returns the total number of observations in the snapshot.
func (s HDRSnapshot) Count() uint64 {
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	return total
}

// Quantile returns the p-quantile: the geometric midpoint of the bucket
// holding the sample of rank ⌈p·count⌉ (nearest-rank definition). Returns 0
// on an empty snapshot. p is clamped into [0, 1]; Quantile(1) reports the
// exact maximum observed rather than a bucket midpoint.
func (s HDRSnapshot) Quantile(p float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if p >= 1 {
		return s.MaxSeen
	}
	if p < 0 {
		p = 0
	}
	target := uint64(math.Ceil(p * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			rep := s.representative(i)
			// A bucket midpoint can overshoot the largest value actually
			// observed (all top-bucket samples in the bucket's lower half);
			// no quantile may exceed the true maximum, so clamp. This also
			// keeps p99.9 ≤ max in reports.
			if rep > s.MaxSeen {
				rep = s.MaxSeen
			}
			return rep
		}
	}
	return s.MaxSeen // unreachable: the loop covers the whole total
}

// representative mirrors HDRHistogram.representative on snapshot data.
func (s HDRSnapshot) representative(i int) float64 {
	switch i {
	case 0:
		return s.Min
	case len(s.Counts) - 1:
		return s.Max
	}
	return s.Min * math.Pow(s.Growth, float64(i-1)+0.5)
}
