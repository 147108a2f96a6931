package dataset

import (
	"runtime"
	"testing"
)

// TestBuildAllocBytes pins the bytes Build allocates for the city
// speedserver serves (DefaultConfig: 884 roads, 14 days) at 10% above the
// 30.2 MB it read when pinned. The history logs are sized once per road
// from the road's coverage probability, and an incident walks only its
// own neighbourhood; before both, a build allocated 75.8 MB. The race
// detector shifts allocation figures, so the test is skipped there; CI
// runs it in a non-race step.
func TestBuildAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures shift under the race detector; CI runs it without -race")
	}
	const limit = 33.0e6
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Build(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("Build(DefaultConfig()) allocated %.1f MB in %d allocations", float64(bytes)/1e6, after.Mallocs-before.Mallocs)
	if bytes > limit {
		t.Errorf("Build(DefaultConfig()) allocated %.1f MB, limit %.1f MB", float64(bytes)/1e6, limit/1e6)
	}
}
