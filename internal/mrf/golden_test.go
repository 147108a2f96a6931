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

// jacobiMessages runs the Jacobi schedule in-package the way Infer does and
// returns its converged message store.
func jacobiMessages(t *testing.T, j *Jacobi, m *Model, evidence []Evidence) []float64 {
	t.Helper()
	ev, err := evidenceMap(m, evidence)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := j.run(context.Background(), m, ev)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// bpMessages runs the residual schedule in-package the way Infer does and
// returns a copy of its converged message store.
func bpMessages(t *testing.T, bp *BP, m *Model, evidence []Evidence) []float64 {
	t.Helper()
	ev, err := evidenceMap(m, evidence)
	if err != nil {
		t.Fatal(err)
	}
	r := bp.getRun(m.topo.NumDirectedEdges(), m.NumRoads())
	defer bp.release(r)
	if err := r.schedule(context.Background(), &bp.cfg, m, ev); err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), r.msg...)
}

// TestEnginesBitIdenticalGolden pins the exact output bits of the engines
// whose numbers must never move under a refactor: both BP schedules'
// marginals and converged messages. The jacobi digests were recorded from
// the code before BP's arithmetic was shared between the two
// message-passing schedules, and the bp digests from the residual schedule
// before it became the served engine; both held when the edge temper moved
// from every message update into the Topology. Like
// internal/hlm/testdata/train_golden.json, the digests are for linux/amd64,
// the platform CI runs on: math.Log and math.Exp have per-architecture
// implementations, so another platform may differ in the last bit.
func TestEnginesBitIdenticalGolden(t *testing.T) {
	want := map[string]string{
		"jacobi/random/pup":        "d3a1ee568509eeaea5770447e17f63e0526200c7e99799b86b3b06991833fef6",
		"jacobi/random/beliefs":    "e92c42f8b27d28dfdcb9c84431f155190851db8857ee67214cd2e65b8e3b4a7c",
		"jacobi/lattice/cold/pup":  "0af79d408a212990ddd16248a34545e2bf19cc17afa612f09b93eb2d16a0f5c6",
		"jacobi/lattice/cold/msgs": "55e16fceadb706bdbeb758668e11e48bd5f3ab78dc07b583c75035ebf8dfc421",
		"bp/random/pup":            "4f05ecad2992da3b9e07a7c522c146386d3b291fb4569bab0e75b5522317b636",
		"bp/random/beliefs":        "85b358d95e106d61e409a3066553ab2faca3cf4c7d74c9614eefad1f8be55b82",
		"bp/lattice/cold/pup":      "9d529d0cbe17f9a8accd6a764c356638357d85e1402bf298b18947bf2e7e6610",
		"bp/lattice/cold/msgs":     "f10ef80c906a76e2ce5b8295f3437a55810893f3711f4e6675b820e3d3293d23",
	}
	got := map[string]hash.Hash{}
	for name := range want {
		got[name] = sha256.New()
	}
	ctx := context.Background()

	// The 50 random graphs, at the tolerance of the BP-versus-Jacobi
	// equivalence test.
	cfg := BPConfig{MaxIterations: 500, Damping: 0.3, Tolerance: 1e-7}
	jacobi, err := NewJacobi(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := NewBP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 50; seed++ {
		m, ev, _ := randomEquivalenceCase(t, seed)
		res, err := jacobi.Infer(ctx, m, ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(got["jacobi/random/pup"], res.PUp)
		hashFloats(got["jacobi/random/beliefs"], jacobiMessages(t, jacobi, m, ev))
		res, err = bp.Infer(ctx, m, ev, nil)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(got["bp/random/pup"], res.PUp)
		hashFloats(got["bp/random/beliefs"], bpMessages(t, bp, m, ev))
	}

	// The 384-road BenchmarkBPInfer lattice on the default configuration.
	g, priors, err := gridForBench(24, 16)
	if err != nil {
		t.Fatal(err)
	}
	latticeJacobi, err := NewJacobi(DefaultBPConfig())
	if err != nil {
		t.Fatal(err)
	}
	latticeBP, err := NewBP(DefaultBPConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev := []Evidence{{Road: 5, Up: true}, {Road: 200, Up: false}, {Road: 377, Up: true}}
	m := mustTemperedModel(t, g, 0.2, priors)
	res, err := latticeJacobi.Infer(ctx, m, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	hashFloats(got["jacobi/lattice/cold/pup"], res.PUp)
	hashFloats(got["jacobi/lattice/cold/msgs"], jacobiMessages(t, latticeJacobi, m, ev))
	res, err = latticeBP.Infer(ctx, m, ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	hashFloats(got["bp/lattice/cold/pup"], res.PUp)
	hashFloats(got["bp/lattice/cold/msgs"], bpMessages(t, latticeBP, m, ev))

	for name, w := range want {
		if sum := hex.EncodeToString(got[name].Sum(nil)); sum != w {
			t.Errorf("%s: digest %s, want %s", name, sum, w)
		}
	}
}
