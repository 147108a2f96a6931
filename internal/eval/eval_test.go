package eval

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/roadnet"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	a.Add(10, 12) // err 2
	a.Add(12, 8)  // err 4
	m := a.Metrics()
	if m.N != 2 {
		t.Fatalf("N = %d", m.N)
	}
	if m.MAE != 3 {
		t.Errorf("MAE = %v", m.MAE)
	}
	wantRMSE := math.Sqrt((4.0 + 16.0) / 2)
	if math.Abs(m.RMSE-wantRMSE) > 1e-12 {
		t.Errorf("RMSE = %v, want %v", m.RMSE, wantRMSE)
	}
	wantMAPE := (2.0/12 + 4.0/8) / 2
	if math.Abs(m.MAPE-wantMAPE) > 1e-12 {
		t.Errorf("MAPE = %v, want %v", m.MAPE, wantMAPE)
	}
}

func TestAccumulatorSkipsInvalid(t *testing.T) {
	var a Accumulator
	a.Add(0, 10)
	a.Add(10, 0)
	a.Add(math.NaN(), 10)
	a.Add(10, math.NaN())
	a.Add(-1, 10)
	if a.Metrics().N != 0 {
		t.Errorf("invalid pairs were scored: %+v", a.Metrics())
	}
}

func TestEmptyMetrics(t *testing.T) {
	var a Accumulator
	if m := a.Metrics(); m.MAE != 0 || m.N != 0 {
		t.Errorf("empty metrics = %+v", m)
	}
}

func TestAddSliceExcludes(t *testing.T) {
	var a Accumulator
	est := []float64{10, 20, 30}
	truth := []float64{11, 22, 33}
	a.AddSlice(est, truth, map[roadnet.RoadID]bool{1: true})
	m := a.Metrics()
	if m.N != 2 {
		t.Fatalf("N = %d, want 2", m.N)
	}
	if math.Abs(m.MAE-2) > 1e-12 { // errors 1 and 3
		t.Errorf("MAE = %v", m.MAE)
	}
}

func TestMerge(t *testing.T) {
	var a, b Accumulator
	a.Add(10, 11)
	b.Add(10, 13)
	a.Merge(&b)
	m := a.Metrics()
	if m.N != 2 || m.MAE != 2 {
		t.Errorf("merged = %+v", m)
	}
}

// trendAccuracy scores binary trend predictions, skipping excluded roads.
// It returns the fraction of correct predictions and the number scored.
func trendAccuracy(predUp, trueUp []bool, exclude map[roadnet.RoadID]bool) (float64, int) {
	correct, n := 0, 0
	for r := range predUp {
		if exclude != nil && exclude[roadnet.RoadID(r)] {
			continue
		}
		n++
		if predUp[r] == trueUp[r] {
			correct++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(correct) / float64(n), n
}

func TestTrendAccuracy(t *testing.T) {
	pred := []bool{true, true, false, false}
	truth := []bool{true, false, false, true}
	acc, n := trendAccuracy(pred, truth, nil)
	if n != 4 || acc != 0.5 {
		t.Errorf("acc = %v, n = %d", acc, n)
	}
	acc, n = trendAccuracy(pred, truth, map[roadnet.RoadID]bool{1: true, 3: true})
	if n != 2 || acc != 1 {
		t.Errorf("excluded acc = %v, n = %d", acc, n)
	}
	if acc, n := trendAccuracy(nil, nil, nil); acc != 0 || n != 0 {
		t.Error("empty trend accuracy wrong")
	}
}

func TestTrueTrends(t *testing.T) {
	truth := []float64{10, 5, 8}
	means := map[roadnet.RoadID]float64{0: 8, 1: 8}
	up, ok := TrueTrends(truth, func(r roadnet.RoadID) (float64, bool) {
		m, have := means[r]
		return m, have
	})
	if !ok[0] || !ok[1] || ok[2] {
		t.Errorf("ok = %v", ok)
	}
	if !up[0] || up[1] {
		t.Errorf("up = %v", up)
	}
}

func TestImprovement(t *testing.T) {
	a := Metrics{MAE: 3}
	b := Metrics{MAE: 5}
	if got := Improvement(a, b); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Improvement = %v, want 0.4", got)
	}
	if got := Improvement(a, Metrics{}); got != 0 {
		t.Errorf("Improvement over zero = %v", got)
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{MAE: 1.5, RMSE: 2.25, MAPE: 0.12, N: 7}
	s := m.String()
	for _, want := range []string{"1.500", "2.250", "12.0%", "n=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Demo", "method", "MAE")
	tab.AddRowf("static", 1.234)
	tab.AddRowf("ours", 0.8)
	tab.AddRow("short")
	if len(tab.rows) != 3 {
		t.Fatalf("rows = %d", len(tab.rows))
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Demo", "method", "static", "1.234", "0.800"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| static | 1.234 |") {
		t.Errorf("markdown wrong:\n%s", md)
	}
	if !strings.Contains(md, "**Demo**") {
		t.Error("markdown missing title")
	}
}
