package hlm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// refModel is one regression fitted by the three-pass reference: y ≈
// intercept + Σ coef[j]·x[j].
type refModel struct {
	intercept float64
	coef      []float64
	rmse      float64
	n         int
}

// refRidge is the three-pass ridge fit that fitted the seed regressions
// before linalg.Sums, in the same floating-point operations: it centres the
// rows on their means, builds the normal equations (XᵀX + (λ+1e-9)·I)·w =
// Xᵀy of the centred rows, solves them by Cholesky, and sums the squared
// residuals row by row. x is the n×p design, row-major. It returns nil
// where the factorisation fails.
func refRidge(x []float64, p int, y []float64, lambda float64) *refModel {
	n := len(y)
	if n == 0 {
		return nil
	}
	xMean := make([]float64, p)
	for i := range n {
		for j, v := range x[i*p : (i+1)*p] {
			xMean[j] += v
		}
	}
	for j := range xMean {
		xMean[j] /= float64(n)
	}
	var ySum float64
	for _, v := range y {
		ySum += v
	}
	yMean := ySum / float64(n)

	a, b, cr := make([]float64, p*p), make([]float64, p), make([]float64, p)
	for i := range n {
		for j, v := range x[i*p : (i+1)*p] {
			cr[j] = v - xMean[j]
		}
		cy := y[i] - yMean
		for u := range p {
			//lint:ignore floateq exact-zero sparsity skip: only terms contributing exactly nothing are skipped
			if cr[u] == 0 {
				continue
			}
			b[u] += cr[u] * cy
			for v := u; v < p; v++ {
				a[u*p+v] += cr[u] * cr[v]
			}
		}
	}
	for u := range p {
		for v := u + 1; v < p; v++ {
			a[v*p+u] = a[u*p+v]
		}
		a[u*p+u] += lambda + 1e-9
	}

	l := make([]float64, p*p)
	for i := range p {
		for j := 0; j <= i; j++ {
			sum := a[i*p+j]
			for k := range j {
				sum -= l[i*p+k] * l[j*p+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil
				}
				l[i*p+i] = math.Sqrt(sum)
			} else {
				l[i*p+j] = sum / l[j*p+j]
			}
		}
	}
	z, w := make([]float64, p), make([]float64, p)
	for i := range p {
		s := b[i]
		for k := range i {
			s -= l[i*p+k] * z[k]
		}
		z[i] = s / l[i*p+i]
	}
	for i := p - 1; i >= 0; i-- {
		s := z[i]
		for k := i + 1; k < p; k++ {
			s -= l[k*p+i] * w[k]
		}
		w[i] = s / l[i*p+i]
	}

	var shift float64
	for j := range p {
		shift += w[j] * xMean[j]
	}
	m := &refModel{intercept: yMean - shift, coef: w, n: n}
	var sse float64
	for i := range n {
		var dot float64
		for j := range p {
			dot += w[j] * x[i*p+j]
		}
		d := y[i] - (m.intercept + dot)
		sse += d * d
	}
	if sse > 0 {
		m.rmse = math.Sqrt(sse / float64(n))
	}
	return m
}

// refFitTrend is the three-pass trio fit: it copies each row into the up
// (y ≥ 1) or the down class, then fits the pooled rows and each class with
// refRidge: pooled over every row, and up and down over the matching rows
// when the class holds at least minSamples/2 of them; a class that is
// scarcer or fails to fit is left nil. ok is false, and the trio zero, when
// fewer than minSamples rows exist or the pooled fit fails.
func refFitTrend(x []float64, p int, y []float64, minSamples int, lambda float64) (pm trio[*refModel], ok bool) {
	if len(y) < minSamples {
		return pm, false
	}
	if pm.pooled = refRidge(x, p, y, lambda); pm.pooled == nil {
		return trio[*refModel]{}, false
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
		pm.up = refRidge(upX, p, upY, lambda)
	}
	if len(downY) >= minSamples/2 {
		pm.down = refRidge(downX, p, downY, lambda)
	}
	return pm, true
}

// lineRef returns the reference form of a one-feature Line, nil for the
// zero Line.
func lineRef(l linalg.Line) *refModel {
	if l.N == 0 {
		return nil
	}
	return &refModel{intercept: l.Intercept, coef: []float64{l.Slope}, rmse: l.RMSE, n: l.N}
}

// fitRef returns the reference form of a Fit of p features, nil for the
// zero Fit.
func fitRef(f linalg.Fit, p int) *refModel {
	if f.N == 0 {
		return nil
	}
	return &refModel{intercept: f.Intercept, coef: f.Coef[:p], rmse: f.RMSE, n: f.N}
}

func lineTrio(pm *trio[linalg.Line]) *trio[*refModel] {
	return &trio[*refModel]{up: lineRef(pm.up), down: lineRef(pm.down), pooled: lineRef(pm.pooled)}
}

func fitTrio(pm *trio[linalg.Fit], p int) *trio[*refModel] {
	return &trio[*refModel]{up: fitRef(pm.up, p), down: fitRef(pm.down, p), pooled: fitRef(pm.pooled, p)}
}

// TestFitTrendMatchesCopyThenRidgeFit: the one-pass trio sums fit the trio
// the three-pass reference fits, copying each row into its class and then
// ridge-fitting each class (refFitTrend), to within lineTol by
// compareTrio: seedTrioSums for one to four features under the seed
// model's minSeedSamples, and trioSums for one under the generic model's
// minSamples, both with the package's lambda. The random designs include
// all-up and all-down rows, an up class just below the half-minimum,
// constant x, rows exactly at y = 1, and rows holding ±Inf or NaN.
func TestFitTrendMatchesCopyThenRidgeFit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := range 8000 {
		p := 1 + trial/8%maxSeedFeatures // so each p meets every mode
		n := rng.Intn(90)
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
		case 3: // the up class just below the half-minimum
			for i := range y {
				y[i] = 0.6 + 0.39*rng.Float64()
			}
			for k := minSeedSamples/2 - 1 - rng.Intn(3); k > 0 && n > 0; k-- {
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

		var seed seedTrioSums
		for i := range y {
			seed.add(x[i*p:(i+1)*p], y[i])
		}
		got, ok := seed.fit()
		if why := trioMismatch(fitTrio(&got, p), ok, got == trio[linalg.Fit]{}, x, p, y, minSeedSamples); why != "" {
			t.Fatalf("trial %d (mode %d, p=%d, n=%d): seed trio %s", trial, mode, p, n, why)
		}
		if p != 1 {
			continue
		}
		var line trioSums
		for i := range y {
			line.add(x[i], y[i])
		}
		gotLine, ok := line.fit()
		if why := trioMismatch(lineTrio(&gotLine), ok, gotLine == trio[linalg.Line]{}, x, 1, y, minSamples); why != "" {
			t.Fatalf("trial %d (mode %d, n=%d): one-feature trio %s", trial, mode, n, why)
		}
	}
}

// trioMismatch holds a one-pass trio fit, with its ok and whether it is the
// zero trio, to refFitTrend over the same rows under minSamples and the
// package's lambda, and returns "" when they agree and what differs
// otherwise.
func trioMismatch(got *trio[*refModel], ok, zero bool, x []float64, p int, y []float64, minSamples int) string {
	want, wantOK := refFitTrend(x, p, y, minSamples, lambda)
	if ok != wantOK || (!ok && !zero) {
		return fmt.Sprintf("ok %v (%s), reference %v", ok, trioString(got), wantOK)
	}
	if _, why := compareTrio(got, &want); why != "" {
		return fmt.Sprintf("%s\nreference %s", why, trioString(&want))
	}
	return ""
}

// lineTol is the bound a one-pass trio fit is held to against the
// three-pass reference: 1e-9 in intercept, every coefficient and RMSE,
// relative above 1 and absolute below.
const lineTol = 1e-9

// compareTrio compares a one-pass trio with the three-pass reference's
// class by class: the same fitted or unfitted outcome, an equal N and
// feature count, a NaN in both or in neither, and otherwise intercept,
// coefficients and RMSE within lineTol. why is "" when they agree and says
// what differs otherwise; worst is the largest difference weighed, over the
// classes both fitted without a NaN.
func compareTrio(got, want *trio[*refModel]) (worst float64, why string) {
	for _, c := range []struct {
		name string
		g, w *refModel
	}{{"pooled", got.pooled, want.pooled}, {"up", got.up, want.up}, {"down", got.down, want.down}} {
		switch {
		case c.w == nil && c.g == nil:
			continue
		case c.w == nil || c.g == nil || c.g.n != c.w.n || len(c.g.coef) != len(c.w.coef):
			if why == "" {
				why = fmt.Sprintf("%s: %s, reference %s", c.name, modelString(c.g), modelString(c.w))
			}
			continue
		}
		pairs := [][2]float64{{c.g.intercept, c.w.intercept}, {c.g.rmse, c.w.rmse}}
		for j := range c.w.coef {
			pairs = append(pairs, [2]float64{c.g.coef[j], c.w.coef[j]})
		}
		var nan [2]bool
		for _, v := range pairs {
			nan[0] = nan[0] || math.IsNaN(v[0])
			nan[1] = nan[1] || math.IsNaN(v[1])
		}
		ok := nan[0] == nan[1]
		for _, v := range pairs {
			if !nan[1] {
				d := math.Abs(v[0]-v[1]) / max(1, math.Abs(v[1]))
				worst = max(worst, d)
				ok = ok && d <= lineTol
			}
		}
		if !ok && why == "" {
			why = fmt.Sprintf("%s: %s, reference %s", c.name, modelString(c.g), modelString(c.w))
		}
	}
	return worst, why
}

func modelString(m *refModel) string {
	if m == nil {
		return "unfitted"
	}
	return fmt.Sprintf("{intercept %v coef %v rmse %v n %d}", m.intercept, m.coef, m.rmse, m.n)
}

func trioString(pm *trio[*refModel]) string {
	var d goldenDump
	d.trio("", pm)
	return d.String()
}
