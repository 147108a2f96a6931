package seedsel

import (
	"context"
	"testing"

	"repro/internal/roadnet"
)

// allCandidates returns every road of a problem as a candidate list.
func allCandidates(p *Problem) []roadnet.RoadID {
	out := make([]roadnet.RoadID, p.NumRoads())
	for i := range out {
		out[i] = roadnet.RoadID(i)
	}
	return out
}

func TestShardedSingleShardMatchesLazy(t *testing.T) {
	p := randomProblem(t, 3, 60)
	const k = 8
	want, err := Lazy{}.Select(p, k)
	if err != nil {
		t.Fatalf("Lazy: %v", err)
	}
	picks, err := SelectShardedCtx(context.Background(), []ShardProblem{{Problem: p, Candidates: allCandidates(p)}}, k)
	if err != nil {
		t.Fatalf("SelectSharded: %v", err)
	}
	if len(picks) != len(want) {
		t.Fatalf("got %d picks, want %d", len(picks), len(want))
	}
	for i, pk := range picks {
		if pk.Shard != 0 || pk.Road != want[i] {
			t.Fatalf("pick %d = shard %d road %d, want shard 0 road %d", i, pk.Shard, pk.Road, want[i])
		}
	}
}

// TestShardedMatchesReferenceGreedy checks the merged CELF against a plain
// greedy reference over the summed block-diagonal objective: at each step the
// reference scores every remaining candidate of every shard and takes the
// maximum (ties: lower shard, then lower road). The sharded selector must
// produce the identical pick sequence.
func TestShardedMatchesReferenceGreedy(t *testing.T) {
	shards := []ShardProblem{
		{Problem: randomProblem(t, 11, 40)},
		{Problem: randomProblem(t, 12, 30)},
		{Problem: randomProblem(t, 13, 50)},
	}
	for i := range shards {
		shards[i].Candidates = allCandidates(shards[i].Problem)
	}
	const k = 12
	got, err := SelectShardedCtx(context.Background(), shards, k)
	if err != nil {
		t.Fatalf("SelectSharded: %v", err)
	}

	uncovered := make([][]float64, len(shards))
	chosen := make([]map[roadnet.RoadID]bool, len(shards))
	for i, sp := range shards {
		uncovered[i] = sp.Problem.newUncovered()
		chosen[i] = map[roadnet.RoadID]bool{}
	}
	var want []ShardedPick
	for len(want) < k {
		bestGain := -1.0
		best := ShardedPick{Shard: -1}
		for i, sp := range shards {
			for _, c := range sp.Candidates {
				if chosen[i][c] {
					continue
				}
				if g := sp.Problem.gain(uncovered[i], c); g > bestGain {
					bestGain = g
					best = ShardedPick{Shard: i, Road: c}
				}
			}
		}
		if best.Shard < 0 {
			break
		}
		chosen[best.Shard][best.Road] = true
		shards[best.Shard].Problem.apply(uncovered[best.Shard], best.Road)
		want = append(want, best)
	}

	if len(got) != len(want) {
		t.Fatalf("got %d picks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestShardedRestrictsToCandidates(t *testing.T) {
	p := randomProblem(t, 5, 40)
	cands := []roadnet.RoadID{3, 7, 11, 19}
	picks, err := SelectShardedCtx(context.Background(), []ShardProblem{{Problem: p, Candidates: cands}}, 3)
	if err != nil {
		t.Fatalf("SelectSharded: %v", err)
	}
	allowed := map[roadnet.RoadID]bool{}
	for _, c := range cands {
		allowed[c] = true
	}
	seen := map[roadnet.RoadID]bool{}
	for _, pk := range picks {
		if !allowed[pk.Road] {
			t.Fatalf("picked non-candidate road %d", pk.Road)
		}
		if seen[pk.Road] {
			t.Fatalf("road %d picked twice", pk.Road)
		}
		seen[pk.Road] = true
	}
}

func TestShardedValidation(t *testing.T) {
	p := randomProblem(t, 1, 10)
	sp := []ShardProblem{{Problem: p, Candidates: allCandidates(p)}}
	if _, err := SelectShardedCtx(context.Background(), nil, 1); err == nil {
		t.Fatal("no shards accepted")
	}
	if _, err := SelectShardedCtx(context.Background(), []ShardProblem{{Problem: nil}}, 1); err == nil {
		t.Fatal("nil problem accepted")
	}
	if _, err := SelectShardedCtx(context.Background(), sp, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := SelectShardedCtx(context.Background(), sp, 11); err == nil {
		t.Fatal("k beyond candidates accepted")
	}
	if _, err := SelectShardedCtx(context.Background(), []ShardProblem{{Problem: p, Candidates: []roadnet.RoadID{99}}}, 1); err == nil {
		t.Fatal("out-of-range candidate accepted")
	}
}

func TestShardedCancellation(t *testing.T) {
	p := randomProblem(t, 2, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SelectShardedCtx(ctx, []ShardProblem{{Problem: p, Candidates: allCandidates(p)}}, 4); err == nil {
		t.Fatal("cancelled selection returned no error")
	}
}
