package obs

import (
	"context"
	"io"
	"log/slog"
)

// requestIDKey carries the request correlation ID through a context.
type requestIDKey struct{}

// WithRequestID returns a context carrying the given request ID. The API
// middleware calls this once per request; spans and loggers downstream pick
// the ID up automatically, so one grep over the logs and the /debug/trace
// output correlates a single slow or shed request across both.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the request ID carried by ctx, or "" if none.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// ctxHandler decorates a slog.Handler with the request ID from the record's
// context, so callers log with plain logger.InfoContext(ctx, ...) and the
// correlation attribute appears without every call site threading it.
type ctxHandler struct {
	inner slog.Handler
}

func (h ctxHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

func (h ctxHandler) Handle(ctx context.Context, rec slog.Record) error {
	if id := RequestIDFrom(ctx); id != "" {
		rec = rec.Clone()
		rec.AddAttrs(slog.String("request_id", id))
	}
	return h.inner.Handle(ctx, rec)
}

func (h ctxHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return ctxHandler{inner: h.inner.WithAttrs(attrs)}
}

func (h ctxHandler) WithGroup(name string) slog.Handler {
	return ctxHandler{inner: h.inner.WithGroup(name)}
}

// NewLogger returns a structured logger writing one JSON object per line to
// w, annotating every record with the request ID carried by the logging
// call's context (see WithRequestID). level sets the minimum level.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(ctxHandler{inner: slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})})
}

// NewTextLogger is NewLogger with logfmt-style key=value output, for humans
// watching a terminal rather than a log pipeline.
func NewTextLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(ctxHandler{inner: slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})})
}

// nopHandler discards every record. slog.DiscardHandler only exists from Go
// 1.24 and go.mod declares 1.22, so we carry our own.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

// NopLogger returns a logger that discards everything — the default for
// library code (internal/api) when the caller does not supply a logger.
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }
