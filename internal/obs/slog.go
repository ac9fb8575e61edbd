package obs

import (
	"context"
	"io"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"odin/internal/clock"
)

// LogHandler is a deterministic slog.Handler: slog.TextHandler renders
// each record as one logfmt line, and LogHandler stamps it with virtual
// time instead of the record's wall-clock time, so replayed runs produce
// reproducible logs. A record logged under a WithTime context carries
// that time (the time of the action it reports); any other record reads
// the handler's internal/clock Clock (only live binaries see real
// timestamps). Safe for concurrent use; each Handle emits one line with a
// single Write.
//
//	t=12.5 level=INFO msg="chip degraded" chip=3 reprograms=8
type LogHandler struct {
	text slog.Handler
	out  *stampWriter
	clk  clock.Clock
}

// stampWriter is the TextHandler's writer: it puts "t=<stamp> " in front
// of the one line the TextHandler writes per record. Handle sets stamp
// and delegates while holding mu, so each line leaves with its own stamp.
type stampWriter struct {
	mu    sync.Mutex
	w     io.Writer
	stamp float64
	buf   []byte
}

func (s *stampWriter) Write(line []byte) (int, error) {
	s.buf = strconv.AppendFloat(append(s.buf[:0], "t="...), s.stamp, 'g', -1, 64)
	s.buf = append(append(s.buf, ' '), line...)
	if _, err := s.w.Write(s.buf); err != nil {
		return 0, err
	}
	return len(line), nil
}

// NewLogHandler returns a handler writing to w, stamping records that
// carry no WithTime context from clk, and dropping records below level
// (nil level means slog.LevelInfo).
func NewLogHandler(w io.Writer, clk clock.Clock, level slog.Leveler) *LogHandler {
	out := &stampWriter{w: w}
	return &LogHandler{text: slog.NewTextHandler(out, &slog.HandlerOptions{Level: level}), out: out, clk: clk}
}

// Enabled implements slog.Handler.
func (h *LogHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.text.Enabled(ctx, level)
}

// timeKey is the context key WithTime stores a record's virtual time under.
type timeKey struct{}

// WithTime returns a context that stamps records handled under it with
// virtual time t. Emitters pass the time of the action a line reports, so
// the stamp cannot race a clock that another goroutine keeps moving.
func WithTime(ctx context.Context, t float64) context.Context {
	return context.WithValue(ctx, timeKey{}, t)
}

// Handle implements slog.Handler: one deterministic line per record,
// stamped with the context's WithTime value, else the handler's clock.
// The record's own Time (a wall-clock read taken by slog) is cleared, so
// the TextHandler writes no time key of its own.
func (h *LogHandler) Handle(ctx context.Context, r slog.Record) error {
	r.Time = time.Time{}
	h.out.mu.Lock()
	defer h.out.mu.Unlock()
	t, ok := ctx.Value(timeKey{}).(float64)
	if !ok {
		t = h.clk.Now()
	}
	h.out.stamp = t
	return h.text.Handle(ctx, r)
}

// WithAttrs implements slog.Handler.
func (h *LogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &LogHandler{text: h.text.WithAttrs(attrs), out: h.out, clk: h.clk}
}

// WithGroup implements slog.Handler; group names dot-qualify later keys.
func (h *LogHandler) WithGroup(name string) slog.Handler {
	return &LogHandler{text: h.text.WithGroup(name), out: h.out, clk: h.clk}
}
