package par

import (
	"sync/atomic"
	"testing"
)

// TestForCoversRange asserts every index in [0, n) is visited exactly once,
// above and below the serial cutoff and at awkward worker counts.
func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, SerialCutoff - 1, SerialCutoff, SerialCutoff + 1, 4*SerialCutoff + 3} {
		for _, workers := range []int{0, 1, 2, 3, 16, n + 5} {
			hits := make([]int32, n)
			For(n, workers, func(start, end int) {
				for i := start; i < end; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestForDisjointWrites asserts chunks never overlap: concurrent bodies write
// their own ranges without races (run under -race).
func TestForDisjointWrites(t *testing.T) {
	n := 8 * SerialCutoff
	out := make([]int, n)
	For(n, 8, func(start, end int) {
		for i := start; i < end; i++ {
			out[i] = i * i
		}
	})
	for i := range out {
		if out[i] != i*i {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("Workers should default to GOMAXPROCS ≥ 1")
	}
	if Workers(5) != 5 {
		t.Error("explicit worker count not honoured")
	}
}
