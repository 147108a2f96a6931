package mrf

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corr"
	"repro/internal/roadnet"
)

// TestTopologyInvariants asserts the CSR structure mirrors the graph, each
// slot holds its edge's agreement tempered by the topology's temper, and the
// reverse-edge index is a true involution: rev[rev[i]] == i and following
// rev lands on the opposite endpoint's slot.
func TestTopologyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := randomSmallGraph(rng, 9)
	if err != nil {
		t.Fatal(err)
	}
	const temper = 0.2
	topo, err := NewTopology(g, temper)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumRoads()
	if len(topo.off) != n+1 {
		t.Errorf("%d offsets for %d roads", len(topo.off), n)
	}
	total := 0
	for u := 0; u < n; u++ {
		nbs := g.Neighbors(roadnet.RoadID(u))
		lo, hi := int(topo.off[u]), int(topo.off[u+1])
		if hi-lo != len(nbs) {
			t.Fatalf("node %d has %d slots for %d neighbours", u, hi-lo, len(nbs))
		}
		total += len(nbs)
		for k, e := range nbs {
			i := lo + k
			if topo.to[i] != int32(e.To) {
				t.Fatalf("slot %d: to=%d want %d", i, topo.to[i], e.To)
			}
			if want := 0.5 + (e.Agreement-0.5)*temper; topo.agree[i] != want {
				t.Fatalf("slot %d: agree=%v want %v", i, topo.agree[i], want)
			}
			r := topo.rev[i]
			// The reverse slot lives in the neighbour's range and points back.
			if r < topo.off[e.To] || r >= topo.off[e.To+1] {
				t.Fatalf("slot %d: rev %d outside node %d's range", i, r, e.To)
			}
			if topo.to[r] != int32(u) {
				t.Fatalf("slot %d: reverse edge points at %d, want %d", i, topo.to[r], u)
			}
			if topo.rev[r] != int32(i) {
				t.Fatalf("slot %d: rev is not an involution (rev[rev]=%d)", i, topo.rev[r])
			}
		}
	}
	if topo.NumDirectedEdges() != total {
		t.Errorf("NumDirectedEdges = %d, want %d", topo.NumDirectedEdges(), total)
	}
}

// gridForBench builds a W×H lattice correlation graph: the shape of a city
// arterial grid, large enough to exercise the parallel message rounds.
func gridForBench(w, h int) (*corr.Graph, []float64, error) {
	var es []corr.EdgeSpec
	id := func(x, y int) roadnet.RoadID { return roadnet.RoadID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				es = append(es, corr.EdgeSpec{U: id(x, y), V: id(x+1, y), Agreement: 0.72, N: 50})
			}
			if y+1 < h {
				es = append(es, corr.EdgeSpec{U: id(x, y), V: id(x, y+1), Agreement: 0.68, N: 50})
			}
		}
	}
	g, err := corr.NewGraph(w*h, es)
	if err != nil {
		return nil, nil, err
	}
	priors := make([]float64, w*h)
	for i := range priors {
		priors[i] = 0.3 + 0.4*float64(i%7)/6
	}
	return g, priors, nil
}

// BenchmarkBPInfer measures one inference run over a lattice at two scales
// with the topology shared across iterations — the estimator's per-round
// configuration — for both the served residual schedule and the Jacobi
// reference. allocs/op is one headline (the served engine's run state must
// come from the pool, not per-run rebuilds); msg-updates/op is the other:
// the residual schedule must do several times fewer effective message
// updates than Jacobi's full sweeps for the same fixed point.
func BenchmarkBPInfer(b *testing.B) {
	for _, sz := range []struct{ w, h int }{{24, 16}, {64, 48}} {
		for _, name := range []string{"bp", "jacobi"} {
			b.Run(fmt.Sprintf("roads=%d/%s", sz.w*sz.h, name), func(b *testing.B) {
				g, priors, err := gridForBench(sz.w, sz.h)
				if err != nil {
					b.Fatal(err)
				}
				topo, err := NewTopology(g, 0.2)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := NewEngine(name, DefaultBPConfig())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				updatesBefore := MessageUpdatesTotal()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m, err := NewModel(topo, priors)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := eng.Infer(context.Background(), m, nil, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric((MessageUpdatesTotal()-updatesBefore)/float64(b.N), "msg-updates/op")
			})
		}
	}
}
