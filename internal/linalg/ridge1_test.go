package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestRidgeFit1MatchesGeneral: RidgeFit's one-feature path returns the
// general path's model bit for bit — intercept, coefficient, RMSE and N —
// and the same error, over random designs including constant x (only the
// ridge jitter keeps the system solvable), a single sample and repeated
// rows.
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

		got, gotErr := RidgeFit(x, 1, y, lambda)
		want, wantErr := ridgeFit(x, 1, y, lambda)
		if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && !errors.Is(gotErr, ErrNotPositiveDefinite)) {
			t.Fatalf("trial %d: error %v, general path %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("trial %d: error %q, general path %q", trial, gotErr, wantErr)
			}
			continue
		}
		if math.Float64bits(got.Intercept) != math.Float64bits(want.Intercept) ||
			len(got.Coef) != 1 || math.Float64bits(got.Coef[0]) != math.Float64bits(want.Coef[0]) ||
			math.Float64bits(got.RMSE) != math.Float64bits(want.RMSE) || got.N != want.N {
			t.Fatalf("trial %d (n=%d, lambda=%v): p=1 path %+v, general path %+v", trial, n, lambda, *got, *want)
		}
	}
}
