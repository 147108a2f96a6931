package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// fitRows draws the rows of one random fit of p features, row-major in x,
// and a ridge penalty: x spread over four orders of magnitude around 1, y
// in [0.5, 1.5), and every seventh trial a single row. mode adds a constant
// column, a duplicate column, a collinear column, repeated rows, a
// non-finite x or y, every row in one class, or no row.
func fitRows(rng *rand.Rand, trial, p, mode int) (x, y []float64, lambda float64) {
	lambdas := []float64{0.1, 3.7, 1000}
	n := 1 + rng.Intn(60)
	if trial%7 == 0 {
		n = 1
	}
	x, y = make([]float64, n*p), make([]float64, n)
	scale := math.Pow(10, float64(rng.Intn(5)-3))
	for i := range y {
		for j := range p {
			x[i*p+j] = 1 + scale*rng.NormFloat64()
		}
		y[i] = 0.5 + rng.Float64()
	}
	a, b := rng.Intn(p), rng.Intn(p) // two columns, equal when p = 1
	switch mode {
	case 1: // a constant column: it centres to all zeros
		for i := range y {
			x[i*p+a] = x[a]
		}
	case 2: // a duplicate column
		for i := range y {
			x[i*p+a] = x[i*p+b]
		}
	case 3: // a collinear column
		k := rng.NormFloat64()
		for i := range y {
			x[i*p+a] = 0.5 + k*x[i*p+b]
		}
	case 4: // repeated rows
		for i := 1; i < n; i += 2 {
			copy(x[i*p:(i+1)*p], x[(i-1)*p:i*p])
			y[i] = y[i-1]
		}
	case 5: // a non-finite value in x or y
		bad := []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			x[rng.Intn(n*p)] = bad
		} else {
			y[rng.Intn(n)] = bad
		}
	case 6: // every row in one class
		for i := range y {
			y[i] = 1 + float64(trial%2)*(y[i]-1.5)
		}
	case 7: // no row
		x, y = x[:0], y[:0]
	}
	return x, y, lambdas[rng.Intn(len(lambdas))]
}

// TestSumsMatchesRidgeFit: the p-feature accumulator's Fit is the
// three-pass refRidgeFit's over the same rows to within 1e-9 in the
// intercept, every coefficient and the RMSE (relative above 1, absolute
// below), for p = 1 to MaxFeatures, with the same N and zero coefficients
// past p, and it fails, or holds a NaN, exactly where refRidgeFit does.
// It carries TestLineSumsMatchesRidgeLine's one exception: near a perfect
// fit, an RMSE below 1e-7 standard deviations of y must read below it in
// both.
//
// The rows are added in one accumulator, and also split by y ≥ 1 into two
// and merged in either order, as a trend trio pools its classes; a class
// may be empty. The draws cover constant, duplicate and collinear columns,
// a single row, repeated rows, ±Inf and NaN, every row in one class, and no
// row.
//
// The penalty is at least 0.1, the HLM's: with exactly collinear columns or
// no more rows than features, only the penalty keeps the system regular,
// and a solve's coefficients then carry a rounding error of about
// ε·‖Sxx‖/λ, which at λ near 0 is far above 1e-9 for the reference itself.
// x spreads at most 10 around 1 (the HLM's rels lie in 0.25–1.75): with two
// or more features the sums resolve an RMSE only to about ε·‖Sxx‖·‖w‖²,
// which on a near-perfect fit of x spread over 10³ exceeds the floor.
func TestSumsMatchesRidgeFit(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(43))
	var worst float64
	for trial := range 20000 {
		p, mode := 1+trial%MaxFeatures, trial/MaxFeatures%8
		x, y, lambda := fitRows(rng, trial, p, mode)
		want, wantErr := refRidgeFit(x, p, y, lambda)

		var all Sums
		var class [2]Sums
		for i := range y {
			row := x[i*p : (i+1)*p]
			all.Add(row, y[i])
			up := 0
			if y[i] >= 1 {
				up = 1
			}
			class[up].Add(row, y[i])
		}
		downUp, upDown := class[0], class[1]
		downUp.Merge(&class[1])
		upDown.Merge(&class[0])
		for _, c := range []struct {
			name string
			sums Sums
		}{{"one accumulator", all}, {"down merged with up", downUp}, {"up merged with down", upDown}} {
			got, err := c.sums.Fit(lambda)
			if (err == nil) != (wantErr == nil) || (wantErr != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("trial %d, %s (mode %d, p=%d, n=%d, lambda=%v): error %v, refRidgeFit %v", trial, c.name, mode, p, len(y), lambda, err, wantErr)
			}
			if err != nil {
				if got != (Fit{}) {
					t.Fatalf("trial %d, %s: a failed fit returned %+v, want the zero Fit", trial, c.name, got)
				}
				continue
			}
			if got.N != want.N || c.sums.N() != len(y) {
				t.Fatalf("trial %d, %s: N %d (sums %d), refRidgeFit %d", trial, c.name, got.N, c.sums.N(), want.N)
			}
			for j := p; j < MaxFeatures; j++ {
				//lint:ignore floateq a coefficient past the features fitted is exactly zero
				if got.Coef[j] != 0 {
					t.Fatalf("trial %d, %s: coefficient %d of a %d-feature fit is %v", trial, c.name, j, p, got.Coef[j])
				}
			}
			pairs := [][2]float64{{got.Intercept, want.Intercept}}
			for j := range p {
				pairs = append(pairs, [2]float64{got.Coef[j], want.Coef[j]})
			}
			if nan(got.RMSE, pairs, 0) != nan(want.RMSE, pairs, 1) {
				t.Fatalf("trial %d, %s (mode %d, p=%d, n=%d, lambda=%v): %+v, refRidgeFit %+v", trial, c.name, mode, p, len(y), lambda, got, *want)
			}
			if nan(want.RMSE, pairs, 1) {
				continue
			}
			ok := nearRMSE(got.RMSE, want.RMSE, y)
			for _, v := range pairs {
				ok = ok && near(v[0], v[1])
				worst = max(worst, math.Abs(v[0]-v[1])/max(1, math.Abs(v[1])))
			}
			if !ok {
				t.Fatalf("trial %d, %s (mode %d, p=%d, n=%d, lambda=%v): %+v, refRidgeFit %+v", trial, c.name, mode, p, len(y), lambda, got, *want)
			}
		}
	}
	t.Logf("largest intercept or coefficient difference %.3g (bound 1e-9)", worst)
}

// nan reports whether rmse or side k of any pair is NaN.
func nan(rmse float64, pairs [][2]float64, k int) bool {
	for _, v := range pairs {
		if math.IsNaN(v[k]) {
			return true
		}
	}
	return math.IsNaN(rmse)
}
