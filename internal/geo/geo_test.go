package geo

import "testing"

func TestPointArithmetic(t *testing.T) {
	t.Parallel()
	if got := Pt(0, 0).Dist(Pt(3, 4)); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestLerp(t *testing.T) {
	t.Parallel()
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v, want %v", got, b)
	}
	if got := a.Lerp(b, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v, want (5,10)", got)
	}
}

func TestRectBasics(t *testing.T) {
	t.Parallel()
	r := EmptyRect()
	if !r.Empty() {
		t.Fatal("EmptyRect should be empty")
	}
	r = r.Extend(Pt(1, 2)).Extend(Pt(-1, 5))
	if r.Empty() {
		t.Fatal("rect with points should not be empty")
	}
	if r.Min != Pt(-1, 2) || r.Max != Pt(1, 5) {
		t.Errorf("rect = %+v", r)
	}
	if r.Width() != 2 || r.Height() != 3 {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
}

func TestRectUnionIntersect(t *testing.T) {
	t.Parallel()
	a := Rect{Min: Pt(0, 0), Max: Pt(2, 2)}
	c := Rect{Min: Pt(5, 5), Max: Pt(6, 6)}
	u := a.Union(c)
	if u.Min != Pt(0, 0) || u.Max != Pt(6, 6) {
		t.Errorf("Union = %+v", u)
	}
	if got := EmptyRect().Union(a); got != a {
		t.Errorf("Union with empty = %+v", got)
	}
	if got := a.Union(EmptyRect()); got != a {
		t.Errorf("Union with empty = %+v", got)
	}
}

func TestPolylineLengthAndAt(t *testing.T) {
	t.Parallel()
	pl := Polyline{Pt(0, 0), Pt(3, 0), Pt(3, 4)}
	if got := pl.Length(); got != 7 {
		t.Fatalf("Length = %v, want 7", got)
	}
	if got := pl.At(0); got != Pt(0, 0) {
		t.Errorf("At(0) = %v", got)
	}
	if got := pl.At(3); got != Pt(3, 0) {
		t.Errorf("At(3) = %v", got)
	}
	if got := pl.At(5); got != Pt(3, 2) {
		t.Errorf("At(5) = %v", got)
	}
	if got := pl.At(100); got != Pt(3, 4) {
		t.Errorf("At(100) clamps to end, got %v", got)
	}
	if got := pl.At(-1); got != Pt(0, 0) {
		t.Errorf("At(-1) clamps to start, got %v", got)
	}
}
