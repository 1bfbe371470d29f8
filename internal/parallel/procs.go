package parallel

import "context"

// Per-call parallelism. A process-wide worker count is the wrong knob for
// a server sharing one machine between concurrent queries: one query's
// setting would leak into every other query. WithProcs instead rides the
// worker cap on the context, and every primitive takes the context it runs
// under, so every loop run under that context — however deep in a call
// tree, edgeMap round or vertex phase — uses at most the given number of
// workers, while unrelated computations keep the full machine.
//
// The cap composes with GOMAXPROCS: the effective worker count is
// min(Procs(), cap). Nesting WithProcs keeps the innermost cap.

// procsKey is the context key carrying the per-call worker cap.
type procsKey struct{}

// WithProcs returns a context that caps the number of worker goroutines
// used by every primitive invoked under it at p. A nil ctx is treated as
// context.Background(); p <= 0 returns ctx unchanged (no cap).
func WithProcs(ctx context.Context, p int) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if p <= 0 {
		return ctx
	}
	return context.WithValue(ctx, procsKey{}, p)
}

// CtxProcs reports the number of workers the primitives will use under
// ctx: Procs(), capped by any WithProcs limit carried on the context. A
// nil or uncapped ctx yields Procs().
func CtxProcs(ctx context.Context) int {
	p := Procs()
	if ctx != nil {
		if v, ok := ctx.Value(procsKey{}).(int); ok && v > 0 && v < p {
			p = v
		}
	}
	return p
}
