package mrf

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// hashFloats feeds each value's exact IEEE-754 bits into h, so a digest
// moves on any change in any bit.
func hashFloats(h hash.Hash, vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// TestEnginesBitIdenticalGolden pins the exact output bits of the engines
// whose numbers must never move under a refactor: Jacobi BP (marginals and
// exported messages), Gibbs and ICM. The digests were recorded from the
// code before BP's arithmetic was shared between the two message-passing
// schedules; FastBP is deliberately absent, as its numbers are only bounded
// against Jacobi (TestFastBPMatchesJacobiRandomGraphs). Like
// internal/hlm/testdata/train_golden.json, the digests are for linux/amd64,
// the platform CI runs on: math.Log and math.Exp have per-architecture
// implementations, so another platform may differ in the last bit.
func TestEnginesBitIdenticalGolden(t *testing.T) {
	want := map[string]string{
		"bp/random/pup":        "d3a1ee568509eeaea5770447e17f63e0526200c7e99799b86b3b06991833fef6",
		"bp/random/beliefs":    "e92c42f8b27d28dfdcb9c84431f155190851db8857ee67214cd2e65b8e3b4a7c",
		"bp/lattice/cold/pup":  "0af79d408a212990ddd16248a34545e2bf19cc17afa612f09b93eb2d16a0f5c6",
		"bp/lattice/cold/msgs": "55e16fceadb706bdbeb758668e11e48bd5f3ab78dc07b583c75035ebf8dfc421",
		"bp/lattice/warm/pup":  "8664cc8a646925831631832a7f67d6292e78aaada8d4b9aaf283de516bbef82c",
		"bp/lattice/warm/msgs": "81f72ecba82b0506113949895299fad84a6c5e7ff1f43d24b8e8bb76a2093091",
		"gibbs/random/pup":     "913391bf2bb1ba522b37a9dba9f9895476095294261394c963c3a2b9bda8c03b",
		"icm/random/pup":       "bd3d9d99da900d2724038b26439d26fc8c4472952714c345e6378463a751edd8",
	}
	got := map[string]hash.Hash{}
	for name := range want {
		got[name] = sha256.New()
	}
	ctx := context.Background()

	// The 50 random graphs, at the tolerance of the FastBP equivalence test.
	bp, err := NewBP(BPConfig{MaxIterations: 500, Damping: 0.3, Tolerance: 1e-7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 50; seed++ {
		m, ev := randomEquivalenceCase(t, seed)
		res, err := bp.Infer(ctx, m, ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(got["bp/random/pup"], res.PUp)
		hashFloats(got["bp/random/beliefs"], res.Beliefs.msg)
		gibbs, err := Gibbs{Seed: 1}.Infer(ctx, m, ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(got["gibbs/random/pup"], gibbs.PUp)
		icm, err := ICM{}.Infer(ctx, m, ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(got["icm/random/pup"], icm.PUp)
	}

	// The 384-road BenchmarkBPInfer lattice on the default, fanned-out
	// configuration, cold and then warm-started from its own beliefs.
	g, priors, err := gridForBench(24, 16)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewTopology(g)
	if err != nil {
		t.Fatal(err)
	}
	lattice, err := NewBP(DefaultBPConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev := []Evidence{{Road: 5, Up: true}, {Road: 200, Up: false}, {Road: 377, Up: true}}
	var warm *Beliefs
	for _, phase := range []string{"cold", "warm"} {
		m, err := NewModelWithTopology(topo, priors)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetEdgeTemper(0.2); err != nil {
			t.Fatal(err)
		}
		res, err := lattice.Infer(ctx, m, ev, warm)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(got["bp/lattice/"+phase+"/pup"], res.PUp)
		hashFloats(got["bp/lattice/"+phase+"/msgs"], res.Beliefs.msg)
		warm = res.Beliefs
	}

	for name, w := range want {
		if sum := hex.EncodeToString(got[name].Sum(nil)); sum != w {
			t.Errorf("%s: digest %s, want %s", name, sum, w)
		}
	}
}
