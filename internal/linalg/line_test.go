package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// lineRows draws the rows of one random one-feature fit and a ridge
// penalty: x spread over six orders of magnitude around 1 and y in
// [0.5, 1.5), with every seventh trial a single row and the trial's mode
// adding constant x, repeated rows or a non-finite x or y.
func lineRows(rng *rand.Rand, trial int) (x, y []float64, lambda float64) {
	lambdas := []float64{0, 1e-12, 0.1, 3.7, 1000}
	n := 1 + rng.Intn(60)
	if trial%7 == 0 {
		n = 1
	}
	x, y = make([]float64, n), make([]float64, n)
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
	case 3: // a non-finite value in x or y
		bad := []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			x[rng.Intn(n)] = bad
		} else {
			y[rng.Intn(n)] = bad
		}
	}
	return x, y, lambdas[rng.Intn(len(lambdas))]
}

// TestRidgeFit1MatchesGeneral: refRidgeFit's one-feature path, ridgeLine,
// returns the general path's model bit for bit — intercept, coefficient,
// RMSE and N — and the same error, over random designs including constant x
// (only the ridge jitter keeps the system solvable), a single sample,
// repeated rows and non-finite values.
func TestRidgeFit1MatchesGeneral(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4000; trial++ {
		x, y, lambda := lineRows(rng, trial)
		n := len(y)
		got, gotErr := refRidgeFit(x, 1, y, lambda)
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
		if len(got.Coef) != 1 || !sameLine(Line{got.Intercept, got.Coef[0], got.RMSE, got.N}, want) {
			t.Fatalf("trial %d (n=%d, lambda=%v): p=1 path %+v, general path %+v", trial, n, lambda, *got, *want)
		}
		if got.N < 1 {
			t.Fatalf("trial %d: fitted model has N = %d; the zero N marks no fit", trial, got.N)
		}
	}
}

// sameLine reports whether l equals the one-feature model m bit for bit.
func sameLine(l Line, m *ridgeModel) bool {
	return len(m.Coef) == 1 &&
		math.Float64bits(l.Intercept) == math.Float64bits(m.Intercept) &&
		math.Float64bits(l.Slope) == math.Float64bits(m.Coef[0]) &&
		math.Float64bits(l.RMSE) == math.Float64bits(m.RMSE) && l.N == m.N
}

// TestLineSumsMatchesRidgeLine: the one-pass accumulator's Line is
// ridgeLine's over the same rows to within 1e-9 in intercept, slope and
// RMSE (relative above 1, absolute below), with the same N, and it fails,
// or holds a NaN, exactly where ridgeLine does. The one exception is a
// near-perfect fit: its residual sum of squares is a difference of sums
// that each carry a rounding error of about 2⁻⁵² Σ(y − ȳ)², so the sums
// resolve an RMSE only down to about 1.5e-8 times y's standard deviation.
// An RMSE below 1e-7 standard deviations must read below it in both.
//
// The rows are added in one accumulator, and also split by y ≥ 1 into two
// and merged in either order, as a trend trio pools its classes; a class
// may be empty. The draws cover constant x, a single row, repeated rows,
// ±Inf and NaN, every row in one class, and no row.
func TestLineSumsMatchesRidgeLine(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20000; trial++ {
		x, y, lambda := lineRows(rng, trial)
		switch {
		case trial%11 == 0: // no row
			x, y = x[:0], y[:0]
		case trial%13 == 0: // every row in one class
			for i := range y {
				y[i] = 1 + float64(trial%2)*(y[i]-1.5)
			}
		}
		var want Line
		var wantErr error
		if len(y) == 0 {
			wantErr = ErrNoSamples
		} else {
			want, wantErr = ridgeLine(x, y, lambda)
		}

		var all LineSums
		var class [2]LineSums
		for i := range y {
			all.Add(x[i], y[i])
			up := 0
			if y[i] >= 1 {
				up = 1
			}
			class[up].Add(x[i], y[i])
		}
		downUp, upDown := class[0], class[1]
		downUp.Merge(&class[1])
		upDown.Merge(&class[0])
		for _, c := range []struct {
			name string
			sums LineSums
		}{{"one accumulator", all}, {"down merged with up", downUp}, {"up merged with down", upDown}} {
			got, err := c.sums.Line(lambda)
			if (err == nil) != (wantErr == nil) || (wantErr != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("trial %d, %s (n=%d, lambda=%v): error %v, ridgeLine %v", trial, c.name, len(y), lambda, err, wantErr)
			}
			if err != nil {
				if got != (Line{}) {
					t.Fatalf("trial %d, %s: a failed fit returned %+v, want the zero Line", trial, c.name, got)
				}
				continue
			}
			if got.N != want.N || c.sums.N() != len(y) {
				t.Fatalf("trial %d, %s: N %d (sums %d), ridgeLine %d", trial, c.name, got.N, c.sums.N(), want.N)
			}
			if hasNaN(got) != hasNaN(want) {
				t.Fatalf("trial %d, %s (n=%d, lambda=%v): %+v, ridgeLine %+v", trial, c.name, len(y), lambda, got, want)
			}
			if hasNaN(want) {
				continue
			}
			if !near(got.Intercept, want.Intercept) || !near(got.Slope, want.Slope) || !nearRMSE(got.RMSE, want.RMSE, y) {
				t.Fatalf("trial %d, %s (n=%d, lambda=%v): %+v, ridgeLine %+v", trial, c.name, len(y), lambda, got, want)
			}
		}
	}
}

// near reports whether a is within 1e-9 of b: relative when |b| > 1,
// absolute below.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*max(1, math.Abs(b)) }

// nearRMSE reports whether the RMSE a is within 1e-9 of b, or both lie
// below the sums' resolution: 1e-7 times the standard deviation of y.
func nearRMSE(a, b float64, y []float64) bool {
	mean := mean(y)
	var ss float64
	for _, v := range y {
		ss += (v - mean) * (v - mean)
	}
	floor := 1e-7 * math.Sqrt(ss/float64(len(y)))
	return near(a, b) || (a < floor && b < floor)
}

func hasNaN(l Line) bool { return math.IsNaN(l.Intercept) || math.IsNaN(l.Slope) || math.IsNaN(l.RMSE) }
