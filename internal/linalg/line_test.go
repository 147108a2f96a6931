package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestRidgeFit1MatchesGeneral: RidgeLine and RidgeFit's one-feature path,
// which wraps it, return the general path's model bit for bit — intercept,
// coefficient, RMSE and N — and the same error, over random designs
// including constant x (only the ridge jitter keeps the system solvable), a
// single sample and repeated rows.
func TestRidgeFit1MatchesGeneral(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(17))
	lambdas := []float64{0, 1e-12, 0.1, 3.7, 1000}
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(60)
		if trial%7 == 0 {
			n = 1
		}
		x := make([]float64, n)
		y := make([]float64, n)
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		for i := range x {
			x[i] = 1 + scale*rng.NormFloat64()
			y[i] = 0.5 + rng.Float64()
		}
		switch trial % 5 {
		case 1: // constant x: the centred design is all zeros
			for i := range x {
				x[i] = x[0]
			}
		case 2: // repeated rows
			for i := 1; i < n; i += 2 {
				x[i], y[i] = x[i-1], y[i-1]
			}
		case 3: // a non-finite feature: both paths must fail alike
			if trial%3 == 0 {
				x[rng.Intn(n)] = math.NaN()
			}
		}
		lambda := lambdas[rng.Intn(len(lambdas))]

		line, lineErr := RidgeLine(x, y, lambda)
		got, gotErr := RidgeFit(x, 1, y, lambda)
		want, wantErr := ridgeFit(x, 1, y, lambda)
		for _, err := range []error{lineErr, gotErr} {
			if (err == nil) != (wantErr == nil) || (wantErr != nil && !errors.Is(err, ErrNotPositiveDefinite)) {
				t.Fatalf("trial %d: error %v, general path %v", trial, err, wantErr)
			}
			if wantErr != nil && err.Error() != wantErr.Error() {
				t.Fatalf("trial %d: error %q, general path %q", trial, err, wantErr)
			}
		}
		if wantErr != nil {
			if line != (Line{}) {
				t.Fatalf("trial %d: failed RidgeLine returned %+v, want the zero Line", trial, line)
			}
			continue
		}
		if len(got.Coef) != 1 || !sameLine(Line{got.Intercept, got.Coef[0], got.RMSE, got.N}, want) {
			t.Fatalf("trial %d (n=%d, lambda=%v): p=1 path %+v, general path %+v", trial, n, lambda, *got, *want)
		}
		if !sameLine(line, want) {
			t.Fatalf("trial %d (n=%d, lambda=%v): RidgeLine %+v, general path %+v", trial, n, lambda, line, *want)
		}
		if line.N < 1 {
			t.Fatalf("trial %d: fitted Line has N = %d; the zero N marks no fit", trial, line.N)
		}
	}
}

// sameLine reports whether l equals the one-feature model m bit for bit.
func sameLine(l Line, m *RidgeModel) bool {
	return len(m.Coef) == 1 &&
		math.Float64bits(l.Intercept) == math.Float64bits(m.Intercept) &&
		math.Float64bits(l.Slope) == math.Float64bits(m.Coef[0]) &&
		math.Float64bits(l.RMSE) == math.Float64bits(m.RMSE) && l.N == m.N
}
