package engine

import (
	"context"

	"womcpcm/internal/span"
)

// Trace contexts ride the same path request ids do: the server middleware
// parses an incoming W3C traceparent header into the request context, and
// Submit picks it up so the job's root span continues the caller's trace
// instead of starting a trace of its own.

type traceParentKey struct{}

// WithTraceParent returns a context carrying an upstream trace position.
func WithTraceParent(ctx context.Context, tc span.Context) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceParentKey{}, tc)
}

// TraceParentFrom extracts the propagated trace context; ok=false when the
// request carried none.
func TraceParentFrom(ctx context.Context) (span.Context, bool) {
	if ctx == nil {
		return span.Context{}, false
	}
	tc, ok := ctx.Value(traceParentKey{}).(span.Context)
	return tc, ok
}
