package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	t.Parallel()
	m := NewMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At mismatch")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone shares storage")
	}
}

func TestFromRows(t *testing.T) {
	t.Parallel()
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Error("FromRows wrong layout")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows accepted")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows() != 0 {
		t.Error("nil rows should give empty matrix")
	}
}

func TestTranspose(t *testing.T) {
	t.Parallel()
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T dims %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	t.Parallel()
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	if _, err := a.Mul(NewMatrix(3, 3)); !errors.Is(err, ErrShape) {
		t.Error("shape mismatch not reported")
	}
}

func TestMulVec(t *testing.T) {
	t.Parallel()
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	v, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 3 || v[1] != 7 {
		t.Errorf("MulVec = %v", v)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Error("shape mismatch not reported")
	}
}

func TestCholeskyKnown(t *testing.T) {
	t.Parallel()
	a, _ := FromRows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{2, 0, 0}, {6, 1, 0}, {-8, 5, 3}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(l.At(i, j)-want[i][j]) > 1e-12 {
				t.Errorf("L[%d][%d] = %v, want %v", i, j, l.At(i, j), want[i][j])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	t.Parallel()
	a, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3 and -1
	if _, err := Cholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("indefinite matrix: err = %v", err)
	}
	if _, err := Cholesky(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Error("non-square accepted")
	}
}

func TestSolveRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		// Build SPD A = BᵀB + I.
		b := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		bt := b.T()
		a, _ := bt.Mul(b)
		a.AddDiagonal(1)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		rhs, _ := a.MulVec(xTrue)
		x, err := Solve(a, rhs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestSolveCholeskyShapeError(t *testing.T) {
	t.Parallel()
	a, _ := FromRows([][]float64{{4, 0}, {0, 4}})
	l, _ := Cholesky(a)
	if _, err := SolveCholesky(l, []float64{1}); !errors.Is(err, ErrShape) {
		t.Error("rhs length mismatch accepted")
	}
}

func TestDotMeanVariance(t *testing.T) {
	t.Parallel()
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Error("Mean wrong")
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of one sample should be 0")
	}
	if got := Variance([]float64{1, 3}); got != 1 {
		t.Errorf("Variance = %v, want 1", got)
	}
}

func TestRidgeRecoversExactLinearModel(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	n, p := 200, 3
	wTrue := []float64{2.5, -1.0, 0.5}
	const intercept = 4.0
	x := make([]float64, n*p)
	y := make([]float64, n)
	for i := range y {
		row := x[i*p : (i+1)*p]
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		y[i] = intercept + Dot(wTrue, row)
	}
	m, err := RidgeFit(x, p, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-intercept) > 1e-6 {
		t.Errorf("intercept = %v", m.Intercept)
	}
	for j := range wTrue {
		if math.Abs(m.Coef[j]-wTrue[j]) > 1e-6 {
			t.Errorf("coef[%d] = %v, want %v", j, m.Coef[j], wTrue[j])
		}
	}
	if m.RMSE > 1e-6 {
		t.Errorf("RMSE = %v on noiseless data", m.RMSE)
	}
	if m.N != n {
		t.Errorf("N = %d", m.N)
	}
}

func TestRidgeShrinksCoefficients(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	n := 100
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := rng.NormFloat64()
		x[i] = v
		y[i] = 3*v + rng.NormFloat64()*0.1
	}
	loose, _ := RidgeFit(x, 1, y, 0)
	tight, _ := RidgeFit(x, 1, y, 1000)
	if math.Abs(tight.Coef[0]) >= math.Abs(loose.Coef[0]) {
		t.Errorf("lambda=1000 coef %v not shrunk vs %v", tight.Coef[0], loose.Coef[0])
	}
}

func TestRidgeHandlesCollinearFeatures(t *testing.T) {
	t.Parallel()
	// Two identical columns would make OLS singular; ridge must cope.
	x := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	y := []float64{2, 4, 6, 8}
	m, err := RidgeFit(x, 2, y, 1e-6)
	if err != nil {
		t.Fatalf("collinear fit failed: %v", err)
	}
	pred, _ := m.Predict([]float64{5, 5})
	if math.Abs(pred-10) > 1e-3 {
		t.Errorf("prediction on collinear model = %v, want 10", pred)
	}
}

func TestRidgeInterceptOnly(t *testing.T) {
	t.Parallel()
	m, err := RidgeFit(nil, 0, []float64{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Intercept != 2 || len(m.Coef) != 0 {
		t.Errorf("intercept-only model = %+v", m)
	}
	if pred, _ := m.Predict(nil); pred != 2 {
		t.Errorf("Predict = %v", pred)
	}
}

func TestRidgeErrors(t *testing.T) {
	t.Parallel()
	if _, err := RidgeFit(nil, 1, nil, 0); !errors.Is(err, ErrNoSamples) {
		t.Error("empty fit accepted")
	}
	if _, err := RidgeFit([]float64{1}, 1, []float64{1, 2}, 0); !errors.Is(err, ErrShape) {
		t.Error("length mismatch accepted")
	}
	// Ragged rows: three design values for two one-feature responses.
	if _, err := RidgeFit([]float64{1, 1, 2}, 1, []float64{1, 2}, 0); !errors.Is(err, ErrShape) {
		t.Error("ragged design accepted")
	}
	if _, err := RidgeFit([]float64{1, 1, 2}, 2, []float64{1, 2}, 0); !errors.Is(err, ErrShape) {
		t.Error("short design accepted")
	}
	if _, err := RidgeFit(nil, -1, []float64{1}, 0); !errors.Is(err, ErrShape) {
		t.Error("negative feature count accepted")
	}
	if _, err := RidgeFit([]float64{1}, 1, []float64{1}, -1); err == nil {
		t.Error("negative lambda accepted")
	}
	m, _ := RidgeFit([]float64{1, 2}, 1, []float64{1, 2}, 0)
	if _, err := m.Predict([]float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Error("Predict with wrong feature count accepted")
	}
}

// Property: OLS (lambda→0) residuals are orthogonal to every centred feature.
func TestOLSResidualOrthogonality(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, p := 40, 2
		x := make([]float64, n*p)
		y := make([]float64, n)
		for i := range y {
			x[i*p], x[i*p+1] = r.NormFloat64(), r.NormFloat64()
			y[i] = 1 + 2*x[i*p] - x[i*p+1] + r.NormFloat64()
		}
		m, err := RidgeFit(x, p, y, 0)
		if err != nil {
			return false
		}
		for j := 0; j < p; j++ {
			var dot, mean float64
			for i := range y {
				mean += x[i*p+j]
			}
			mean /= float64(n)
			for i := range y {
				pred, _ := m.Predict(x[i*p : (i+1)*p])
				dot += (y[i] - pred) * (x[i*p+j] - mean)
			}
			if math.Abs(dot) > 1e-5 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Cholesky round-trips L·Lᵀ = A for random SPD matrices.
func TestCholeskyRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(seed%5+5)%5
		if n < 1 {
			n = 1
		}
		b := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, r.NormFloat64())
			}
		}
		a, _ := b.T().Mul(b)
		a.AddDiagonal(0.5)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		prod, _ := l.Mul(l.T())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(prod.At(i, j)-a.At(i, j)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
