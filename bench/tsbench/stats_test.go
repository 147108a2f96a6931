package main

import (
	"math"
	"testing"
)

// TestPercentileTailRule pins the rule that a percentile is reported only
// with at least minTail samples beyond it, at the exact sample counts where
// it flips, on synthetic HDR snapshots of 1..n ms.
func TestPercentileTailRule(t *testing.T) {
	for _, tc := range []struct {
		q     float64
		n     int
		tail  int
		valid bool
	}{
		{0.5, 20, minTail, true},
		{0.5, 19, minTail, false},
		{0.9, 100, minTail, true},
		{0.9, 99, minTail, false},
		{0.9, 9, 1, false},
		{0.9, 10, 1, true},
		{0.95, 200, minTail, true},
		{0.95, 199, minTail, false},
		{0.5, 0, 0, false},
	} {
		samples := make([]float64, tc.n)
		for i := range samples {
			samples[i] = float64(tc.n - i)
		}
		v, err := percentile(hist(samples), tc.q, tc.tail)
		if (err == nil) != tc.valid {
			t.Errorf("p%g of %d samples with tail %d: err %v, want valid=%v", tc.q*100, tc.n, tc.tail, err, tc.valid)
			continue
		}
		if err != nil {
			continue
		}
		// Nearest rank: the answer is the sample of rank ⌈q·n⌉, to within
		// the histogram's 1% relative error.
		want := math.Ceil(tc.q * float64(tc.n))
		if math.Abs(v-want) > 0.011*want {
			t.Errorf("p%g of 1..%d ms = %v ms, want %v ms", tc.q*100, tc.n, v, want)
		}
	}
}

// TestFailedRequestsRankLast checks that a failed request, recorded as
// failedMS, counts beyond every latency: with half the samples failed the
// median is a failure.
func TestFailedRequestsRankLast(t *testing.T) {
	samples := make([]float64, 40)
	for i := range samples {
		samples[i] = 5
		if i%2 == 0 {
			samples[i] = failedMS
		}
	}
	p25, err1 := percentile(hist(samples), 0.25, 1)
	p75, err2 := percentile(hist(samples), 0.75, 1)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Abs(p25-5) > 0.05 || p75 != failedMS {
		t.Errorf("p25 %v ms, p75 %v ms; want 5 ms and %v ms", p25, p75, failedMS)
	}
}
