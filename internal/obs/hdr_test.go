package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestHDRBucketIndexMonotone(t *testing.T) {
	h := NewHDRHistogram(DefHDRMin, DefHDRMax, DefHDRGrowth)
	prev := -1
	for v := DefHDRMin / 10; v < DefHDRMax*2; v *= 1.003 {
		i := h.bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone: v=%g got %d after %d", v, i, prev)
		}
		if i < 0 || i >= len(h.buckets) {
			t.Fatalf("bucketIndex out of range: v=%g -> %d (len %d)", v, i, len(h.buckets))
		}
		prev = i
	}
	if got := h.bucketIndex(-1); got != 0 {
		t.Fatalf("negative value should underflow to bucket 0, got %d", got)
	}
	if got := h.bucketIndex(DefHDRMax); got != len(h.buckets)-1 {
		t.Fatalf("v=max should overflow to last bucket, got %d", got)
	}
}

func TestHDRRepresentativeRelativeError(t *testing.T) {
	h := NewHDRHistogram(DefHDRMin, DefHDRMax, DefHDRGrowth)
	bound := math.Sqrt(DefHDRGrowth) - 1 + 1e-12
	for v := DefHDRMin; v < DefHDRMax; v *= 1.0041 {
		i := h.bucketIndex(v)
		if i == 0 || i == len(h.buckets)-1 {
			continue
		}
		rep := h.representative(i)
		relErr := math.Abs(rep-v) / v
		if relErr > bound {
			t.Fatalf("relative error %.4f > %.4f for v=%g (rep %g, bucket %d)", relErr, bound, v, rep, i)
		}
	}
}

func TestHDRInvalidShapePanics(t *testing.T) {
	for _, tc := range []struct{ min, max, growth float64 }{
		{0, 1, 1.02},
		{-1, 1, 1.02},
		{1, 1, 1.02},
		{1e-6, 100, 1},
		{1e-6, 100, 0.5},
		{math.NaN(), 100, 1.02},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHDRHistogram(%v, %v, %v) did not panic", tc.min, tc.max, tc.growth)
				}
			}()
			NewHDRHistogram(tc.min, tc.max, tc.growth)
		}()
	}
}

// TestHDRQuantileVsOracle checks quantile estimates against a sorted-sample
// nearest-rank oracle on a lognormal latency-like distribution. The estimate
// must match the oracle within the bucket relative-error bound (plus a little
// slack for samples that straddle a bucket edge).
func TestHDRQuantileVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHDRHistogram(DefHDRMin, DefHDRMax, DefHDRGrowth)
	const n = 200_000
	samples := make([]float64, n)
	for i := range samples {
		// Lognormal centered around ~2ms with a heavy tail, like HTTP latency.
		v := math.Exp(rng.NormFloat64()*1.1 - 6.2)
		samples[i] = v
		h.Observe(v)
	}
	sort.Float64s(samples)

	snap := h.Snapshot()
	if got := snap.Count(); got != n {
		t.Fatalf("snapshot count = %d, want %d", got, n)
	}
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(math.Ceil(p * n))
		oracle := samples[rank-1]
		got := snap.Quantile(p)
		relErr := math.Abs(got-oracle) / oracle
		if relErr > 0.021 {
			t.Errorf("Quantile(%v) = %g, oracle %g, rel err %.4f > 2.1%%", p, got, oracle, relErr)
		}
	}
	if got, want := snap.Quantile(1), samples[n-1]; got != want {
		t.Errorf("Quantile(1) = %g, want exact max %g", got, want)
	}
}

func TestHDRQuantileEdgeCases(t *testing.T) {
	h := NewHDRHistogram(DefHDRMin, DefHDRMax, DefHDRGrowth)
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram Quantile = %g, want 0", got)
	}
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	if got := h.Count(); got != 0 {
		t.Fatalf("NaN/Inf observations were counted: %d", got)
	}
	h.Observe(0.010)
	if got := h.Quantile(-5); math.Abs(got-0.010)/0.010 > 0.011 {
		t.Fatalf("Quantile(-5) with one sample = %g, want ~0.010", got)
	}
	// Underflow and overflow report the range boundaries.
	h2 := NewHDRHistogram(1e-3, 1, 1.05)
	h2.Observe(1e-9)
	h2.Observe(50)
	if got := h2.Quantile(0.25); got != 1e-3 {
		t.Fatalf("underflow quantile = %g, want min 1e-3", got)
	}
	if got := h2.Quantile(0.75); got != 1 {
		t.Fatalf("overflow quantile = %g, want max 1", got)
	}
	if got := h2.Quantile(1); got != 50 {
		t.Fatalf("Quantile(1) = %g, want exact max 50", got)
	}
}

func TestHDRSnapshotJSONRoundTrip(t *testing.T) {
	h := NewHDRHistogram(DefHDRMin, DefHDRMax, DefHDRGrowth)
	for _, v := range []float64{0.001, 0.002, 0.5, 3} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back HDRSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Count() != snap.Count() || back.Quantile(0.5) != snap.Quantile(0.5) {
		t.Fatalf("round trip changed snapshot: %+v vs %+v", back, snap)
	}
}

// TestHDRConcurrentHammer drives observe/snapshot from many goroutines
// under -race: Observe must stay lock-free-safe and snapshots internally
// consistent (quantiles computed from a torn snapshot still use that
// snapshot's own total).
func TestHDRConcurrentHammer(t *testing.T) {
	h := NewHDRHistogram(DefHDRMin, DefHDRMax, DefHDRGrowth)
	const (
		writers = 8
		perG    = 20_000
	)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.Observe(math.Exp(rng.NormFloat64() - 6))
			}
		}(int64(g))
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			prev := h.Snapshot()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				if s.Count() < prev.Count() {
					t.Errorf("snapshot count went backwards: %d -> %d", prev.Count(), s.Count())
					return
				}
				_ = s.Quantile(0.999)
				prev = s
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got, want := h.Count(), uint64(writers*perG); got != want {
		t.Fatalf("final count = %d, want %d", got, want)
	}
}

func TestHDRRegistryExposition(t *testing.T) {
	r := NewRegistry()
	h := r.HDRHistogram("trendspeed_test_hdr_seconds", "test HDR histogram", "route", "/v1/estimate")
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-4) // 0.1ms .. 100ms uniform
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE trendspeed_test_hdr_seconds summary",
		`trendspeed_test_hdr_seconds{route="/v1/estimate",quantile="0.5"}`,
		`trendspeed_test_hdr_seconds{route="/v1/estimate",quantile="0.999"}`,
		`trendspeed_test_hdr_seconds_sum{route="/v1/estimate"}`,
		`trendspeed_test_hdr_seconds_count{route="/v1/estimate"} 1000`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}

	snap := r.Snapshot()
	fam, ok := snap["trendspeed_test_hdr_seconds"]
	if !ok {
		t.Fatalf("JSON snapshot missing HDR family; have %v", snap)
	}
	if len(fam.Metrics) != 1 {
		t.Fatalf("want 1 sample, got %d", len(fam.Metrics))
	}
	sv := fam.Metrics[0]
	if sv.Count == nil || *sv.Count != 1000 {
		t.Fatalf("snapshot count = %v, want 1000", sv.Count)
	}
	q50, ok := sv.Quantiles["0.5"]
	if !ok {
		t.Fatalf("snapshot missing quantile 0.5: %v", sv.Quantiles)
	}
	if math.Abs(q50-0.05)/0.05 > 0.02 {
		t.Fatalf("snapshot p50 = %g, want ~0.05", q50)
	}
	if q999 := sv.Quantiles["0.999"]; q999 < q50 {
		t.Fatalf("quantiles not ordered: p50 %g > p99.9 %g", q50, q999)
	}
}

func TestHDRRegistryKindClash(t *testing.T) {
	r := NewRegistry()
	r.Counter("trendspeed_test_clash_total", "counter first")
	defer func() {
		if recover() == nil {
			t.Fatalf("registering HDR histogram over a counter did not panic")
		}
	}()
	r.HDRHistogram("trendspeed_test_clash_total", "now an HDR histogram")
}
