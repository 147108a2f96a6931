package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestLoggerRequestIDFromContext(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, slog.LevelInfo)

	ctx := WithRequestID(context.Background(), "req-abc123")
	logger.InfoContext(ctx, "estimate served", "route", "/v1/estimate", "status", 200)
	logger.InfoContext(context.Background(), "no request")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 log lines, got %d: %q", len(lines), buf.String())
	}
	var first, second map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("first line is not JSON: %v (%q)", err, lines[0])
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("second line is not JSON: %v (%q)", err, lines[1])
	}
	if got := first["request_id"]; got != "req-abc123" {
		t.Errorf("request_id = %v, want req-abc123", got)
	}
	if got := first["route"]; got != "/v1/estimate" {
		t.Errorf("route = %v, want /v1/estimate", got)
	}
	if _, ok := second["request_id"]; ok {
		t.Errorf("context without request ID still produced request_id: %q", lines[1])
	}
}

func TestLoggerWithAttrsAndGroupKeepCtxHandler(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, slog.LevelInfo).With("component", "api").WithGroup("req")

	ctx := WithRequestID(context.Background(), "req-xyz")
	logger.InfoContext(ctx, "hello", "k", "v")

	var doc map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &doc); err != nil {
		t.Fatalf("not JSON: %v (%q)", err, buf.String())
	}
	if got := doc["component"]; got != "api" {
		t.Errorf("component = %v, want api", got)
	}
	grp, ok := doc["req"].(map[string]any)
	if !ok {
		t.Fatalf("group req missing: %v", doc)
	}
	// The request ID is added at Handle time, after WithGroup, so it lands
	// inside the open group — what matters is that it survives the wrappers.
	if got := grp["request_id"]; got != "req-xyz" {
		t.Errorf("request_id in group = %v, want req-xyz", got)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, slog.LevelWarn)
	logger.Info("dropped")
	logger.Warn("kept")
	if strings.Contains(buf.String(), "dropped") {
		t.Errorf("info line leaked past warn level: %q", buf.String())
	}
	if !strings.Contains(buf.String(), "kept") {
		t.Errorf("warn line missing: %q", buf.String())
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	logger := NopLogger()
	if logger.Enabled(context.Background(), slog.LevelError) {
		t.Fatalf("NopLogger claims to be enabled at error level")
	}
	// Must not panic or write anywhere, including through With/WithGroup.
	logger.With("k", "v").WithGroup("g").Error("ignored")
}

func TestRequestIDFromEmpty(t *testing.T) {
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Fatalf("RequestIDFrom(bare ctx) = %q, want \"\"", got)
	}
}

func TestSpanCarriesRequestID(t *testing.T) {
	tr := newTracer(8)
	ctx := WithRequestID(context.Background(), "req-span-1")
	_, _ = tr.span(ctx, "estimate", func(ctx context.Context) error {
		_, err := tr.span(ctx, "knn", func(context.Context) error { return nil })
		return err
	})

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	for _, sp := range spans {
		if sp.RequestID != "req-span-1" {
			t.Errorf("span %q request ID = %q, want req-span-1", sp.Name, sp.RequestID)
		}
	}
	if spans[0].Name != "estimate/knn" {
		t.Errorf("nested span name = %q, want estimate/knn", spans[0].Name)
	}

	// Spans without a request context keep the field empty (and omit it in
	// JSON, keeping /debug/trace output compact).
	_, _ = tr.span(context.Background(), "background", func(context.Context) error { return nil })
	raw, err := tr.SpansJSON()
	if err != nil {
		t.Fatalf("SpansJSON: %v", err)
	}
	if !strings.Contains(string(raw), `"request_id": "req-span-1"`) {
		t.Errorf("span dump missing request_id: %s", raw)
	}
	if bg := tr.Spans()[2]; bg.Name != "background" || bg.RequestID != "" {
		t.Errorf("background span = %+v, want no request ID", bg)
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	g := RegisterBuildInfo(r)
	if g.Value() != 1 {
		t.Fatalf("build info gauge = %v, want 1", g.Value())
	}
	// Idempotent: same labels resolve to the same child.
	if RegisterBuildInfo(r) != g {
		t.Fatalf("second RegisterBuildInfo returned a different gauge")
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	text := sb.String()
	if !strings.Contains(text, "trendspeed_build_info{") {
		t.Fatalf("exposition missing build info: %s", text)
	}
	for _, label := range []string{`go_version="go`, `module_version=`, `gomaxprocs="`} {
		if !strings.Contains(text, label) {
			t.Errorf("build info missing label %q in: %s", label, text)
		}
	}
}
