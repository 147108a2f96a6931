// Package core mirrors the shape of repro/internal/core for the hotalloc
// fixture: an Estimate hot root, the helpers it reaches through the
// callgraph, the allocation constructs the analyzer must flag there, and the
// cold paths and unreachable declarations it must leave alone.
package core

import (
	"context"
	"fmt"
)

// View mirrors the published snapshot whose Estimate is a hot root.
type View struct {
	rels []float64
}

// Estimate is a registered hot root; everything it reaches is hot.
func (m *View) Estimate(ctx context.Context, n int) ([]float64, error) {
	if err := m.validate(n); err != nil {
		return nil, err
	}
	out := make([]float64, 0, n)
	for i := 0; i < n && i < len(m.rels); i++ {
		out = append(out, m.rels[i]) // sized by the 3-arg make above: no finding
	}
	tags := map[string]int{"roads": n} // want `map literal allocates on the hot path \(View\.Estimate\)`
	_ = tags
	m.logStats(float64(n))
	_ = m.label("main")
	_ = m.retry(n)
	m.consume(nil)
	_ = m.snapshot()
	return m.scale(out), nil
}

// validate allocates only on its failure exit, which is cold by definition.
func (m *View) validate(n int) error {
	if n < 0 {
		return fmt.Errorf("core: n must be non-negative, got %d", n)
	}
	return nil
}

// scale is hot by reachability; its unsized append is a violation.
func (m *View) scale(out []float64) []float64 {
	var doubled []float64
	for _, v := range out {
		doubled = append(doubled, 2*v) // want `append without capacity evidence on the hot path \(View\.scale\)`
	}
	return doubled
}

// sink mirrors an any-accepting helper; passing a concrete float boxes it.
func sink(v any) { _ = v }

// logStats boxes its argument into sink's interface parameter.
func (m *View) logStats(v float64) {
	sink(v) // want `passing float64 as interface any boxes the value on the hot path \(View\.logStats\)`
}

// label concatenates non-constant strings on the hot path.
func (m *View) label(name string) string {
	return "road:" + name // want `string concatenation allocates on the hot path \(View\.label\)`
}

// retry builds a capturing closure; if it escapes it is a heap allocation.
func (m *View) retry(n int) int {
	f := func() int { return n + 1 } // want `closure captures n and may escape on the hot path \(View\.retry\)`
	return f()
}

// consume allocates only inside the taken branch of an err-nil check: cold.
func (m *View) consume(err error) {
	if err != nil {
		msg := fmt.Sprintf("core: estimate failed: %v", err)
		_ = msg
	}
}

// snapshot documents the suppression path: a once-per-run allocation with a
// recorded justification produces no surviving diagnostic.
func (m *View) snapshot() []string {
	//lint:hotpath-ok fixture: once-per-run allocation outside the round loop
	names := []string{"district-a"}
	return names
}

// rebuild is reachable from no hot root: its allocations are off the hot
// path and must not be flagged.
func (m *View) rebuild(labels []string) map[string]int {
	out := map[string]int{}
	for _, l := range labels {
		out[fmt.Sprintf("label:%s", l)]++
	}
	return out
}
