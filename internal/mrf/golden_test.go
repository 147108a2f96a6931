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
func jacobiMessages(t *testing.T, j *Jacobi, m *Model) []float64 {
	t.Helper()
	msg, err := j.run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// bpMessages runs the residual schedule in-package the way Infer does and
// returns a copy of its converged message store.
func bpMessages(t *testing.T, bp *BP, m *Model) []float64 {
	t.Helper()
	r := bp.getRun(m.topo.NumDirectedEdges(), m.NumRoads())
	defer bp.release(r)
	if err := r.schedule(context.Background(), &bp.cfg, m); err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), r.msg...)
}

// TestEnginesBitIdenticalGolden pins the exact output bits of every engine
// on models whose node priors are their only input: both BP schedules'
// marginals and converged messages, and the oracle's and the lower bound's
// marginals. The digests were recorded from the code that still carried
// hard-evidence clamps, run without evidence, and held when the clamps were
// deleted. Like internal/hlm/testdata/train_golden.json, the digests are for
// linux/amd64, the platform CI runs on: math.Log and math.Exp have
// per-architecture implementations, so another platform may differ in the
// last bit.
func TestEnginesBitIdenticalGolden(t *testing.T) {
	want := map[string]string{
		"jacobi/random/pup":   "92111b426c8e920e133a9f8740e49bb3b953c198a692d60fe722a9e1ed975e93",
		"jacobi/random/msgs":  "7beb01336dc41a327e3588a53775232b2455c47440abf31602d308f4a7ad8e9e",
		"bp/random/pup":       "e01a5a6a5fd0c11721117321fd6efdfaaf57af30af464ede75cb2e2d6b573814",
		"bp/random/msgs":      "1e2dc12edfdae699f604e7e2d692a3ccff17d0c482eff1767f992044295df33f",
		"jacobi/lattice/pup":  "d745e09b0a4b7b7ea70a1a793b94a5b1b7979c8eceeb96d68a8dece5c25c53ab",
		"jacobi/lattice/msgs": "962ede3cbfe42e24775c66402117f0438009eaf420085944b86e487eec31e7d4",
		"bp/lattice/pup":      "0aa93cf9d1ef4ebebb43b8f02fde9892600b35d2ca07548cdd9a03b4e96f4129",
		"bp/lattice/msgs":     "10e4d6d63adc9cd65c8d8714bb474d647e5e9db3ef41b737005879f0817a391d",
		"exact/random/pup":    "842bbb110850c506a19b54e594a765ad82cc1375aa2a7dea5b2d395f775c782a",
		"prior/random/pup":    "65ed0d5f1f7f9e54b063186c876169035bccace1ad896c1d80ca5fa0e75f81fb",
	}
	got := map[string]hash.Hash{}
	for name := range want {
		got[name] = sha256.New()
	}
	ctx := context.Background()
	infer := func(key string, eng Engine, m *Model) {
		t.Helper()
		res, err := eng.Infer(ctx, m, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(got[key], res.PUp)
	}

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
		m, _ := randomEquivalenceCase(t, seed)
		infer("jacobi/random/pup", jacobi, m)
		hashFloats(got["jacobi/random/msgs"], jacobiMessages(t, jacobi, m))
		infer("bp/random/pup", bp, m)
		hashFloats(got["bp/random/msgs"], bpMessages(t, bp, m))
		infer("exact/random/pup", Exact{}, m)
		infer("prior/random/pup", PriorOnly{}, m)
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
	m := mustTemperedModel(t, g, 0.2, priors)
	infer("jacobi/lattice/pup", latticeJacobi, m)
	hashFloats(got["jacobi/lattice/msgs"], jacobiMessages(t, latticeJacobi, m))
	infer("bp/lattice/pup", latticeBP, m)
	hashFloats(got["bp/lattice/msgs"], bpMessages(t, latticeBP, m))

	for name, w := range want {
		if sum := hex.EncodeToString(got[name].Sum(nil)); sum != w {
			t.Errorf("%s: digest %s, want %s", name, sum, w)
		}
	}
}
