package hlm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// refFitTrend is fitTrend as it was before the branch-free partition, kept
// as the reference: it copies each row into the up or the down buffer with
// a branch, then fits every class with linalg.RidgeFit.
func refFitTrend(x []float64, p int, y []float64, minSamples int, lambda float64) (pm trio[*linalg.RidgeModel], ok bool) {
	if len(y) < minSamples {
		return pm, false
	}
	if pm.pooled = refFit(x, p, y, lambda); pm.pooled == nil {
		return trio[*linalg.RidgeModel]{}, false
	}
	var upX, upY, downX, downY []float64
	for i, v := range y {
		if v >= 1 {
			upX = append(upX, x[i*p:(i+1)*p]...)
			upY = append(upY, v)
		} else {
			downX = append(downX, x[i*p:(i+1)*p]...)
			downY = append(downY, v)
		}
	}
	if len(upY) >= minSamples/2 {
		pm.up = refFit(upX, p, upY, lambda)
	}
	if len(downY) >= minSamples/2 {
		pm.down = refFit(downX, p, downY, lambda)
	}
	return pm, true
}

func refFit(x []float64, p int, y []float64, lambda float64) *linalg.RidgeModel {
	m, err := linalg.RidgeFit(x, p, y, lambda)
	if err != nil {
		return nil
	}
	return m
}

// sameRidge reports whether two fits are both absent or bit-identical.
func sameRidge(a, b *linalg.RidgeModel) bool {
	if a == nil || b == nil {
		return a == b
	}
	if math.Float64bits(a.Intercept) != math.Float64bits(b.Intercept) ||
		math.Float64bits(a.RMSE) != math.Float64bits(b.RMSE) || a.N != b.N || len(a.Coef) != len(b.Coef) {
		return false
	}
	for j := range a.Coef {
		if math.Float64bits(a.Coef[j]) != math.Float64bits(b.Coef[j]) {
			return false
		}
	}
	return true
}

// TestFitTrendMatchesCopyThenRidgeFit: fitTrend returns the reference's
// regressions bit for bit, for one feature and for three, over random
// designs that include all-up and all-down rows, a class below
// minSamples/2, constant x, rows exactly at y = 1, and rows holding +Inf or
// NaN. One fitBuf serves every trial, so stale buffer contents are covered.
// With one feature, the generic model's one-pass trioSums fit of the same
// rows, under the package's minSamples and lambda, is held to the
// reference by compareTrio.
func TestFitTrendMatchesCopyThenRidgeFit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var b fitBuf
	lambdas := []float64{0, 0.1, 3}
	for trial := 0; trial < 4000; trial++ {
		p := 1
		if trial%3 == 2 { // every third trial, so p = 3 meets every mode
			p = 3
		}
		n := rng.Intn(90)
		minSamples := 2 + rng.Intn(40)
		x, y := make([]float64, n*p), make([]float64, n)
		for i := range y {
			y[i] = 0.6 + 0.8*rng.Float64()
		}
		for j := range x {
			x[j] = 0.5 + rng.Float64()
		}
		mode := trial % 8
		switch mode {
		case 1: // all up
			for i := range y {
				y[i] = 1 + 0.4*rng.Float64()
			}
		case 2: // all down
			for i := range y {
				y[i] = 0.6 + 0.39*rng.Float64()
			}
		case 3: // the up class below minSamples/2
			for i := range y {
				y[i] = 0.6 + 0.39*rng.Float64()
			}
			for k := rng.Intn(max(1, minSamples/2)); k > 0 && n > 0; k-- {
				y[rng.Intn(n)] = 1 + 0.4*rng.Float64()
			}
		case 4: // constant x
			for j := range x {
				x[j] = 1.1
			}
		case 5: // rows exactly at y = 1
			for i := range y {
				if rng.Intn(3) == 0 {
					y[i] = 1
				}
			}
		case 6, 7: // a non-finite value in x or y
			bad := math.Inf(1 - 2*rng.Intn(2))
			if mode == 7 {
				bad = math.NaN()
			}
			if n > 0 {
				if rng.Intn(2) == 0 {
					y[rng.Intn(n)] = bad
				} else {
					x[rng.Intn(n*p)] = bad
				}
			}
		}
		lambda := lambdas[rng.Intn(len(lambdas))]

		want, wantOK := refFitTrend(x, p, y, minSamples, lambda)
		got, gotOK := fitTrend(&b, x, p, y, minSamples, lambda)
		if gotOK != wantOK || !sameTrio(&got, &want) {
			t.Fatalf("trial %d (mode %d, p=%d, n=%d, minSamples=%d, lambda=%v): ok %v, reference %v\ngot  %s\nwant %s",
				trial, mode, p, n, minSamples, lambda, gotOK, wantOK, trioString(&got), trioString(&want))
		}
		if p != 1 {
			continue
		}
		if why := onePassMismatch(x, y); why != "" {
			t.Fatalf("trial %d (mode %d, n=%d): %s", trial, mode, n, why)
		}
	}
}

// onePassMismatch fits the one-feature rows with trioSums and with the
// reference, both under the generic model's minSamples and lambda, and
// returns "" when compareTrio finds them equal and what differs otherwise.
func onePassMismatch(x, y []float64) string {
	var sums trioSums
	for i := range y {
		sums.add(x[i], y[i])
	}
	got, ok := sums.fit()
	want, wantOK := refFitTrend(x, 1, y, minSamples, lambda)
	if ok != wantOK || (!ok && got != trio[linalg.Line]{}) {
		return fmt.Sprintf("one-pass ok %v (%+v), reference %v", ok, got, wantOK)
	}
	if _, why := compareTrio(&got, &want); why != "" {
		return fmt.Sprintf("one-pass trio %s\nreference %s", why, trioString(&want))
	}
	return ""
}

// lineTol is the bound a one-pass trio fit is held to against the
// three-pass reference: 1e-9 in intercept, slope and RMSE, relative above 1
// and absolute below.
const lineTol = 1e-9

// compareTrio compares a one-pass trio with the reference's three-pass
// RidgeFit trio class by class: the same fitted or unfitted outcome, an
// equal N, a NaN in both or in neither, and otherwise intercept, slope and
// RMSE within lineTol. why is "" when they agree and says what differs
// otherwise; worst is the largest difference weighed, over the classes both
// fitted without a NaN.
func compareTrio(got *trio[linalg.Line], want *trio[*linalg.RidgeModel]) (worst float64, why string) {
	for _, c := range []struct {
		name string
		l    linalg.Line
		m    *linalg.RidgeModel
	}{{"pooled", got.pooled, want.pooled}, {"up", got.up, want.up}, {"down", got.down, want.down}} {
		if c.m == nil {
			if c.l != (linalg.Line{}) && why == "" {
				why = fmt.Sprintf("%s: fitted %+v where the reference is unfitted", c.name, c.l)
			}
			continue
		}
		pairs := [][2]float64{{c.l.Intercept, c.m.Intercept}, {c.l.Slope, c.m.Coef[0]}, {c.l.RMSE, c.m.RMSE}}
		var nan [2]bool
		for _, v := range pairs {
			nan[0] = nan[0] || math.IsNaN(v[0])
			nan[1] = nan[1] || math.IsNaN(v[1])
		}
		ok := c.l.N == c.m.N && nan[0] == nan[1]
		for _, v := range pairs {
			if !nan[1] {
				d := math.Abs(v[0]-v[1]) / max(1, math.Abs(v[1]))
				worst = max(worst, d)
				ok = ok && d <= lineTol
			}
		}
		if !ok && why == "" {
			why = fmt.Sprintf("%s: %+v, reference intercept %v slope %v rmse %v n %d", c.name, c.l, c.m.Intercept, c.m.Coef[0], c.m.RMSE, c.m.N)
		}
	}
	return worst, why
}

func sameTrio(a, b *trio[*linalg.RidgeModel]) bool {
	return sameRidge(a.pooled, b.pooled) && sameRidge(a.up, b.up) && sameRidge(a.down, b.down)
}

func trioString(pm *trio[*linalg.RidgeModel]) string {
	var d goldenDump
	d.reg("up", pm.up)
	d.reg("down", pm.down)
	d.reg("pooled", pm.pooled)
	return d.String()
}
