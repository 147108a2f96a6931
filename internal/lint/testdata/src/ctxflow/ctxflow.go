// Package ctxflow is the fixture for the context-propagation contract: a
// scope handed a context must hand that same context on, library code may
// not mint a context at all, and constant-bound loops past the poll
// threshold must observe cancellation.
package ctxflow

import "context"

// EstimateCtx is the cancellable entrypoint.
func EstimateCtx(ctx context.Context, n int) float64 {
	total := 0.0
	for i := 0; i < n; i++ {
		total++
	}
	return total
}

// Estimate is a ctx-less convenience wrapper: minting Background to feed the
// Ctx sibling is a library mint like any other.
func Estimate(n int) float64 {
	return EstimateCtx(context.Background(), n) // want `context\.Background\(\) in library function Estimate; take a ctx parameter`
}

// DroppedMint discards the caller's cancellation by minting a fresh context.
func DroppedMint(ctx context.Context, n int) float64 {
	c := context.Background() // want `context\.Background\(\) drops the ctx in scope \(DroppedMint\)`
	return EstimateCtx(c, n)
}

// DroppedSibling calls the non-Ctx variant although the resolved callee has
// a Ctx sibling and a context is in scope.
func DroppedSibling(ctx context.Context, n int) float64 {
	return Estimate(n) // want `calling Estimate drops the ctx in scope \(DroppedSibling\); call EstimateCtx instead`
}

// Detached mints a context in a library function outside the wrapper
// pattern: it must take a ctx parameter instead.
func Detached() error {
	ctx := context.TODO() // want `context\.TODO\(\) in library function Detached; take a ctx parameter`
	<-ctx.Done()
	return ctx.Err()
}

// Sweep runs a constant-bound loop past the threshold without ever touching
// the ctx in scope.
func Sweep(ctx context.Context) float64 {
	total := 0.0
	for i := 0; i < 2048; i++ { // want `loop with constant bound 2048 \(> 1024\) never polls the ctx in scope \(Sweep\)`
		total += float64(i)
	}
	return total
}

// PolledSweep strides a cancellation check through the same loop: no finding.
func PolledSweep(ctx context.Context) (float64, error) {
	total := 0.0
	for i := 0; i < 4096; i++ {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		total += float64(i)
	}
	return total, nil
}

// ShortSweep stays under the threshold: no finding.
func ShortSweep(ctx context.Context) float64 {
	total := 0.0
	for i := 0; i < 512; i++ {
		total += float64(i)
	}
	return total
}

// Methodful exercises the sibling lookup through a receiver's method set.
type Methodful struct{ bias float64 }

// RunCtx is the cancellable variant.
func (m *Methodful) RunCtx(ctx context.Context) float64 { return m.bias }

// Run is a ctx-less wrapper for RunCtx, flagged like Estimate.
func (m *Methodful) Run() float64 {
	return m.RunCtx(context.Background()) // want `context\.Background\(\) in library function Methodful\.Run; take a ctx parameter`
}

// Relay must forward its context to the method's Ctx variant.
func (m *Methodful) Relay(ctx context.Context) float64 {
	return m.Run() // want `calling Run drops the ctx in scope \(Methodful\.Relay\); call RunCtx instead`
}

// Forward does everything right: no finding.
func (m *Methodful) Forward(ctx context.Context) float64 {
	return m.RunCtx(ctx)
}
