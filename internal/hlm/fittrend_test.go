package hlm

import (
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
// NaN. With one feature it is checked both as the generic model fits it,
// into Lines held by value whose N = 0 marks an absent class, and as the
// seed model fits it, through linalg.RidgeFit. One fitBuf serves every
// trial, so stale buffer contents are covered.
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
		got, gotOK := fitTrend(&b, x, p, y, minSamples, lambda, linalg.RidgeFit)
		if gotOK != wantOK || !sameTrio(&got, &want) {
			t.Fatalf("trial %d (mode %d, p=%d, n=%d, minSamples=%d, lambda=%v): ok %v, reference %v\ngot  %s\nwant %s",
				trial, mode, p, n, minSamples, lambda, gotOK, wantOK, trioString(&got), trioString(&want))
		}
		if p != 1 {
			continue
		}
		line, lineOK := fitTrend(&b, x, p, y, minSamples, lambda, fitLine)
		lineRegs := trio[*linalg.RidgeModel]{up: lineModel(line.up), down: lineModel(line.down), pooled: lineModel(line.pooled)}
		if lineOK != wantOK || !sameTrio(&lineRegs, &want) || (!lineOK && line != trio[linalg.Line]{}) {
			t.Fatalf("trial %d (mode %d, n=%d, minSamples=%d, lambda=%v): Lines ok %v, reference %v\ngot  %s\nwant %s",
				trial, mode, n, minSamples, lambda, lineOK, wantOK, trioString(&lineRegs), trioString(&want))
		}
	}
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
