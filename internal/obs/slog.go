package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"sync"

	"odin/internal/clock"
)

// LogHandler is a deterministic slog.Handler: it renders logfmt-style
// lines stamped with virtual time instead of the record's wall-clock time,
// so replayed runs produce reproducible logs. A record logged under a
// WithTime context carries that time (the time of the action it
// reports); any other record reads the handler's internal/clock Clock
// (only live binaries see real timestamps). Safe for concurrent use; each
// Handle emits one line with a single Write.
//
//	t=12.5 level=INFO msg="chip degraded" chip=3 reprograms=8
type LogHandler struct {
	mu  *sync.Mutex
	w   io.Writer
	clk clock.Clock

	level  slog.Leveler
	prefix string // pre-rendered WithAttrs attributes
	groups []string
}

// NewLogHandler returns a handler writing to w, stamping records that
// carry no WithTime context from clk, and dropping records below level
// (nil level means slog.LevelInfo).
func NewLogHandler(w io.Writer, clk clock.Clock, level slog.Leveler) *LogHandler {
	if level == nil {
		level = slog.LevelInfo
	}
	return &LogHandler{mu: &sync.Mutex{}, w: w, clk: clk, level: level}
}

// Enabled implements slog.Handler.
func (h *LogHandler) Enabled(_ context.Context, level slog.Level) bool {
	return level >= h.level.Level()
}

// timeKey is the context key WithTime stores a record's virtual time under.
type timeKey struct{}

// WithTime returns a context that stamps records handled under it with
// virtual time t. Emitters pass the time of the action a line reports, so
// the stamp cannot race a clock that another goroutine keeps moving.
func WithTime(ctx context.Context, t float64) context.Context {
	return context.WithValue(ctx, timeKey{}, t)
}

// Handle implements slog.Handler: one deterministic logfmt line per
// record, stamped with the context's WithTime value, else the handler's
// clock. The record's own Time (a wall-clock read taken by slog) is
// deliberately ignored.
func (h *LogHandler) Handle(ctx context.Context, r slog.Record) error {
	t, ok := ctx.Value(timeKey{}).(float64)
	if !ok {
		t = h.clk.Now()
	}
	var sb strings.Builder
	sb.WriteString("t=")
	sb.WriteString(strconv.FormatFloat(t, 'g', -1, 64))
	sb.WriteString(" level=")
	sb.WriteString(r.Level.String())
	sb.WriteString(" msg=")
	sb.WriteString(logValue(r.Message))
	sb.WriteString(h.prefix)
	r.Attrs(func(a slog.Attr) bool {
		h.appendAttr(&sb, a)
		return true
	})
	sb.WriteByte('\n')
	h.mu.Lock()
	defer h.mu.Unlock()
	_, err := io.WriteString(h.w, sb.String())
	return err
}

// WithAttrs implements slog.Handler by pre-rendering the attributes.
func (h *LogHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	var sb strings.Builder
	sb.WriteString(h.prefix)
	for _, a := range attrs {
		h.appendAttr(&sb, a)
	}
	nh.prefix = sb.String()
	return &nh
}

// WithGroup implements slog.Handler; group names dot-qualify later keys.
func (h *LogHandler) WithGroup(name string) slog.Handler {
	nh := *h
	nh.groups = append(append([]string(nil), h.groups...), name)
	return &nh
}

func (h *LogHandler) appendAttr(sb *strings.Builder, a slog.Attr) {
	if a.Equal(slog.Attr{}) {
		return
	}
	v := a.Value.Resolve()
	if v.Kind() == slog.KindGroup {
		sub := *h
		if a.Key != "" {
			sub.groups = append(append([]string(nil), h.groups...), a.Key)
		}
		for _, ga := range v.Group() {
			sub.appendAttr(sb, ga)
		}
		return
	}
	sb.WriteByte(' ')
	for _, g := range h.groups {
		sb.WriteString(g)
		sb.WriteByte('.')
	}
	sb.WriteString(a.Key)
	sb.WriteByte('=')
	switch v.Kind() {
	case slog.KindInt64:
		sb.WriteString(strconv.FormatInt(v.Int64(), 10))
	case slog.KindUint64:
		sb.WriteString(strconv.FormatUint(v.Uint64(), 10))
	case slog.KindFloat64:
		sb.WriteString(strconv.FormatFloat(v.Float64(), 'g', -1, 64))
	case slog.KindBool:
		sb.WriteString(strconv.FormatBool(v.Bool()))
	default:
		sb.WriteString(logValue(fmt.Sprintf("%v", v.Any())))
	}
}

// logValue quotes a string when it contains logfmt-breaking characters.
func logValue(s string) string {
	if s == "" || strings.ContainsAny(s, " \t\n\"=") {
		return strconv.Quote(s)
	}
	return s
}
