package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fromRows builds a matrix from row slices, which must all have equal
// length.
func fromRows(rows [][]float64) (*matrix, error) {
	if len(rows) == 0 {
		return newMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := newMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", errShape, i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// mul returns m × b.
func (m *matrix) mul(b *matrix) (*matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("%w: (%dx%d) x (%dx%d)", errShape, m.rows, m.cols, b.rows, b.cols)
	}
	out := newMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			for j, bv := range b.data[k*b.cols : (k+1)*b.cols] {
				out.data[i*out.cols+j] += a * bv
			}
		}
	}
	return out, nil
}

// clone returns a deep copy of m.
func (m *matrix) clone() *matrix {
	c := newMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// transpose returns the transpose of m as a new matrix.
func (m *matrix) transpose() *matrix {
	t := newMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// mulVec returns m × v for a column vector v.
func (m *matrix) mulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("%w: (%dx%d) x vec(%d)", errShape, m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = dot(m.data[i*m.cols:(i+1)*m.cols], v)
	}
	return out, nil
}

func TestMatrixBasics(t *testing.T) {
	t.Parallel()
	m := newMatrix(2, 3)
	if m.rows != 2 || m.cols != 3 {
		t.Fatalf("dims = %dx%d", m.rows, m.cols)
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At mismatch")
	}
	c := m.clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("clone shares storage")
	}
}

func TestFromRows(t *testing.T) {
	t.Parallel()
	m, err := fromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Error("fromRows wrong layout")
	}
	if _, err := fromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows accepted")
	}
	empty, err := fromRows(nil)
	if err != nil || empty.rows != 0 {
		t.Error("nil rows should give empty matrix")
	}
}

func TestTranspose(t *testing.T) {
	t.Parallel()
	m, _ := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.transpose()
	if tr.rows != 3 || tr.cols != 2 {
		t.Fatalf("transpose dims %dx%d", tr.rows, tr.cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	t.Parallel()
	a, _ := fromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := fromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.mul(b)
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
	if _, err := a.mul(newMatrix(3, 3)); !errors.Is(err, errShape) {
		t.Error("shape mismatch not reported")
	}
}

func TestMulVec(t *testing.T) {
	t.Parallel()
	a, _ := fromRows([][]float64{{1, 2}, {3, 4}})
	v, err := a.mulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 3 || v[1] != 7 {
		t.Errorf("mulVec = %v", v)
	}
	if _, err := a.mulVec([]float64{1}); !errors.Is(err, errShape) {
		t.Error("shape mismatch not reported")
	}
}

func TestCholeskyKnown(t *testing.T) {
	t.Parallel()
	a, _ := fromRows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	l, err := cholesky(a)
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
	a, _ := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3 and -1
	if _, err := cholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("indefinite matrix: err = %v", err)
	}
	if _, err := cholesky(newMatrix(2, 3)); !errors.Is(err, errShape) {
		t.Error("non-square accepted")
	}
}

func TestSolveRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		// Build SPD A = BᵀB + I.
		b := newMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		bt := b.transpose()
		a, _ := bt.mul(b)
		a.AddDiagonal(1)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		rhs, _ := a.mulVec(xTrue)
		x, err := solve(a, rhs)
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
	a, _ := fromRows([][]float64{{4, 0}, {0, 4}})
	l, _ := cholesky(a)
	if _, err := solveCholesky(l, []float64{1}); !errors.Is(err, errShape) {
		t.Error("rhs length mismatch accepted")
	}
}

func TestDotMean(t *testing.T) {
	t.Parallel()
	if dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if mean(nil) != 0 {
		t.Error("mean(nil) != 0")
	}
	if mean([]float64{2, 4}) != 3 {
		t.Error("Mean wrong")
	}
}

// fitter fits the n×p row-major design x to y with ridge penalty lambda.
type fitter struct {
	name string
	fit  func(x []float64, p int, y []float64, lambda float64) (*ridgeModel, error)
}

// fitters returns every fit a test of p features holds to one expectation:
// the reference refRidgeFit, the program's Sums.Fit and, where p = 1,
// LineSums.Line, each read out as a ridgeModel.
func fitters(p int) []fitter {
	fs := []fitter{{"refRidgeFit", refRidgeFit}, {"Sums.Fit", sumsFit}}
	if p == 1 {
		fs = append(fs, fitter{"LineSums.Line", lineSumsFit})
	}
	return fs
}

// sumsFit adds the rows to one Sums and fits them.
func sumsFit(x []float64, p int, y []float64, lambda float64) (*ridgeModel, error) {
	var s Sums
	for i := range y {
		s.Add(x[i*p:(i+1)*p], y[i])
	}
	f, err := s.Fit(lambda)
	if err != nil {
		return nil, err
	}
	return &ridgeModel{Intercept: f.Intercept, Coef: append([]float64(nil), f.Coef[:p]...), RMSE: f.RMSE, N: f.N}, nil
}

// lineSumsFit adds the one-feature rows to one LineSums and fits its line.
func lineSumsFit(x []float64, _ int, y []float64, lambda float64) (*ridgeModel, error) {
	var s LineSums
	for i := range y {
		s.Add(x[i], y[i])
	}
	l, err := s.Line(lambda)
	if err != nil {
		return nil, err
	}
	return &ridgeModel{Intercept: l.Intercept, Coef: []float64{l.Slope}, RMSE: l.RMSE, N: l.N}, nil
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
		y[i] = intercept + dot(wTrue, row)
	}
	for _, f := range fitters(p) {
		m, err := f.fit(x, p, y, 0)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if math.Abs(m.Intercept-intercept) > 1e-6 {
			t.Errorf("%s: intercept = %v", f.name, m.Intercept)
		}
		for j := range wTrue {
			if math.Abs(m.Coef[j]-wTrue[j]) > 1e-6 {
				t.Errorf("%s: coef[%d] = %v, want %v", f.name, j, m.Coef[j], wTrue[j])
			}
		}
		if m.RMSE > 1e-6 {
			t.Errorf("%s: RMSE = %v on noiseless data", f.name, m.RMSE)
		}
		if m.N != n {
			t.Errorf("%s: N = %d", f.name, m.N)
		}
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
	for _, f := range fitters(1) {
		loose, err := f.fit(x, 1, y, 0)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		tight, err := f.fit(x, 1, y, 1000)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		if math.Abs(tight.Coef[0]) >= math.Abs(loose.Coef[0]) {
			t.Errorf("%s: lambda=1000 coef %v not shrunk vs %v", f.name, tight.Coef[0], loose.Coef[0])
		}
	}
}

func TestRidgeHandlesCollinearFeatures(t *testing.T) {
	t.Parallel()
	// Two identical columns would make OLS singular; ridge must cope.
	x := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	y := []float64{2, 4, 6, 8}
	for _, f := range fitters(2) {
		m, err := f.fit(x, 2, y, 1e-6)
		if err != nil {
			t.Fatalf("%s: collinear fit failed: %v", f.name, err)
		}
		pred, _ := m.Predict([]float64{5, 5})
		if math.Abs(pred-10) > 1e-3 {
			t.Errorf("%s: prediction on collinear model = %v, want 10", f.name, pred)
		}
	}
}

func TestRidgeInterceptOnly(t *testing.T) {
	t.Parallel()
	m, err := refRidgeFit(nil, 0, []float64{1, 2, 3}, 0)
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
	rng := rand.New(rand.NewSource(3))
	for _, p := range []int{1, 4} {
		// Rows spread so widely that a penalty of −1 leaves the system
		// positive definite: only the penalty check can refuse it.
		const n = 20
		x, y := make([]float64, n*p), make([]float64, n)
		for i := range x {
			x[i] = 10 * rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		for _, f := range fitters(p) {
			if _, err := f.fit(nil, p, nil, 0); !errors.Is(err, ErrNoSamples) {
				t.Errorf("%s, %d features: empty fit accepted", f.name, p)
			}
			if _, err := f.fit(x, p, y, -1); err == nil {
				t.Errorf("%s, %d features: negative lambda accepted", f.name, p)
			}
		}
	}
	if _, err := refRidgeFit([]float64{1}, 1, []float64{1, 2}, 0); !errors.Is(err, errShape) {
		t.Error("length mismatch accepted")
	}
	// Ragged rows: three design values for two one-feature responses.
	if _, err := refRidgeFit([]float64{1, 1, 2}, 1, []float64{1, 2}, 0); !errors.Is(err, errShape) {
		t.Error("ragged design accepted")
	}
	if _, err := refRidgeFit([]float64{1, 1, 2}, 2, []float64{1, 2}, 0); !errors.Is(err, errShape) {
		t.Error("short design accepted")
	}
	if _, err := refRidgeFit(nil, -1, []float64{1}, 0); !errors.Is(err, errShape) {
		t.Error("negative feature count accepted")
	}
	m, _ := refRidgeFit([]float64{1, 2}, 1, []float64{1, 2}, 0)
	if _, err := m.Predict([]float64{1, 2}); !errors.Is(err, errShape) {
		t.Error("Predict with wrong feature count accepted")
	}
}

// Property: OLS (lambda→0) residuals are orthogonal to every centred
// feature, for the reference and the program's fit alike.
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
		for _, fit := range fitters(p) {
			m, err := fit.fit(x, p, y, 0)
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
		b := newMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b.Set(i, j, r.NormFloat64())
			}
		}
		a, _ := b.transpose().mul(b)
		a.AddDiagonal(0.5)
		l, err := cholesky(a)
		if err != nil {
			return false
		}
		prod, _ := l.mul(l.transpose())
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
