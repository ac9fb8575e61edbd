package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"odin/internal/check"
	"odin/internal/clock"
	"odin/internal/rng"
)

func TestLogHandlerDeterministicOutput(t *testing.T) {
	t.Parallel()
	render := func() string {
		var buf bytes.Buffer
		clk := clock.NewVirtual(2.5)
		log := slog.New(NewLogHandler(&buf, clk, nil))
		log.Info("chip degraded", "chip", 3, "energy", 0.125, "live", true)
		clk.Advance(1.5)
		log.Warn("queue full", "model", "VGG11")
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("log output not deterministic:\n%q\nvs\n%q", a, b)
	}
	want := "t=2.5 level=INFO msg=\"chip degraded\" chip=3 energy=0.125 live=true\n" +
		"t=4 level=WARN msg=\"queue full\" model=VGG11\n"
	if a != want {
		t.Fatalf("log output:\n%q\nwant:\n%q", a, want)
	}
}

// TestLogHandlerWithTimeOverridesClock checks that a WithTime context
// stamps its record with the carried time, whatever the clock reads.
func TestLogHandlerWithTimeOverridesClock(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	log := slog.New(NewLogHandler(&buf, clock.NewVirtual(9), nil))
	log.InfoContext(WithTime(context.Background(), 1.25), "chip added", "chip", 4)
	log.Info("fleet drained")
	want := "t=1.25 level=INFO msg=\"chip added\" chip=4\n" +
		"t=9 level=INFO msg=\"fleet drained\"\n"
	if got := buf.String(); got != want {
		t.Fatalf("log output:\n%q\nwant:\n%q", got, want)
	}
}

func TestLogHandlerLevelFilter(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	log := slog.New(NewLogHandler(&buf, clock.NewVirtual(0), slog.LevelWarn))
	log.Info("dropped")
	log.Debug("dropped too")
	log.Error("kept")
	out := buf.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "msg=kept") {
		t.Fatalf("level filter broken: %q", out)
	}
}

func TestLogHandlerAttrsAndGroups(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	base := slog.New(NewLogHandler(&buf, clock.NewVirtual(1), nil))
	log := base.With("chip", 7).WithGroup("batch")
	log.Info("dispatched", "id", 42, slog.Group("cost", "energy", 0.5))
	got := buf.String()
	want := "t=1 level=INFO msg=dispatched chip=7 batch.id=42 batch.cost.energy=0.5\n"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestLogHandlerConcurrentWrites(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	log := slog.New(NewLogHandler(&buf, clock.NewVirtual(0), nil))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				log.Info("tick", "g", i, "j", j)
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 200 {
		t.Fatalf("got %d lines, want 200", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "t=0 level=INFO msg=tick g=") {
			t.Fatalf("malformed line %q", l)
		}
	}
}

// logCase is one generated record and the logger it is handled through:
// With attributes, an optional group, attributes added inside the group,
// then the record itself, stamped by a WithTime context or by the clock.
type logCase struct {
	Level      slog.Level
	Msg        string
	With       []slog.Attr
	Group      string
	GroupWith  []slog.Attr
	Attrs      []slog.Attr
	HasTime    bool
	Time, Tick float64
}

// logAlphabet holds every character the frozen renderer treats specially
// (space, '"', '=', tab, newline), the backslash it does not, and a
// non-ASCII letter.
var logAlphabet = []string{"a", "Z", "7", ".", "-", " ", `"`, "=", `\`, "\t", "\n", "é"}

// logKeys are identifier keys, the built-in names among them.
var logKeys = []string{"chip", "model", "served", "budget", "reprograms", "t", "time", "level", "msg", "x_1"}

var logFloats = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 0.125, 1e21, -3.5e-7}

func genLogString(src *rng.Source) string {
	var sb strings.Builder
	for n := src.Intn(7); n > 0; n-- {
		sb.WriteString(logAlphabet[src.Intn(len(logAlphabet))])
	}
	return sb.String()
}

func genLogAttr(src *rng.Source, depth int) slog.Attr {
	key := logKeys[src.Intn(len(logKeys))]
	switch src.Intn(8) {
	case 0:
		return slog.String(key, genLogString(src))
	case 1:
		return slog.Int64(key, int64(src.Uint64()))
	case 2:
		return slog.Int(key, src.Intn(2000)-1000)
	case 3:
		return slog.Uint64(key, src.Uint64())
	case 4:
		if src.Bernoulli(0.5) {
			return slog.Float64(key, logFloats[src.Intn(len(logFloats))])
		}
		return slog.Float64(key, math.Float64frombits(src.Uint64()))
	case 5:
		return slog.Bool(key, src.Bernoulli(0.5))
	case 6:
		if depth < 2 {
			return slog.Attr{Key: key, Value: slog.GroupValue(genLogAttrs(src, depth+1)...)}
		}
	}
	return slog.Any(key, errors.New(genLogString(src)))
}

func genLogAttrs(src *rng.Source, depth int) []slog.Attr {
	out := make([]slog.Attr, src.Intn(4))
	for i := range out {
		out[i] = genLogAttr(src, depth)
	}
	return out
}

// render logs c through a handler newHandler builds and returns the bytes
// it wrote.
func (c logCase) render(newHandler func(w io.Writer, clk clock.Clock) slog.Handler) string {
	var buf bytes.Buffer
	h := newHandler(&buf, clock.NewVirtual(c.Tick)).WithAttrs(c.With)
	if c.Group != "" {
		h = h.WithGroup(c.Group).WithAttrs(c.GroupWith)
	}
	ctx := context.Background()
	if c.HasTime {
		ctx = WithTime(ctx, c.Time)
	}
	slog.New(h).LogAttrs(ctx, c.Level, c.Msg, c.Attrs...)
	return buf.String()
}

// TestPropLogHandlerMatchesFrozen pins the log's bytes: on the records the
// serving layer logs (identifier keys; strings, ints, uint64s, floats,
// bools and errors; With and WithGroup nesting; with and without a
// WithTime context), the TextHandler behind LogHandler writes exactly what
// the frozen hand-rolled renderer wrote.
func TestPropLogHandlerMatchesFrozen(t *testing.T) {
	t.Parallel()
	levels := []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError}
	gen := check.Gen[logCase]{
		Generate: func(t *check.T) logCase {
			src := t.Rng
			c := logCase{
				Level: levels[src.Intn(len(levels))],
				Msg:   genLogString(src),
				With:  genLogAttrs(src, 0),
				Attrs: genLogAttrs(src, 0),
				Tick:  src.Float64() * 100,
			}
			if src.Bernoulli(0.5) {
				c.Group = logKeys[src.Intn(len(logKeys))]
				c.GroupWith = genLogAttrs(src, 0)
			}
			if c.HasTime = src.Bernoulli(0.5); c.HasTime {
				c.Time = logFloats[src.Intn(len(logFloats))]
			}
			return c
		},
		Shrink: func(c logCase) []logCase {
			var out []logCase
			drop := func(as []slog.Attr, set func(*logCase, []slog.Attr)) {
				for i := range as {
					d := c
					set(&d, slices.Delete(slices.Clone(as), i, i+1))
					out = append(out, d)
				}
			}
			drop(c.With, func(d *logCase, as []slog.Attr) { d.With = as })
			drop(c.GroupWith, func(d *logCase, as []slog.Attr) { d.GroupWith = as })
			drop(c.Attrs, func(d *logCase, as []slog.Attr) { d.Attrs = as })
			return out
		},
	}
	check.Run(t, gen, func(c logCase) error {
		got := c.render(func(w io.Writer, clk clock.Clock) slog.Handler { return NewLogHandler(w, clk, nil) })
		want := c.render(func(w io.Writer, clk clock.Clock) slog.Handler { return newFrozenLogHandler(w, clk, nil) })
		if got != want {
			return fmt.Errorf("LogHandler wrote\n%q\nthe frozen renderer\n%q", got, want)
		}
		return nil
	})
}

// TestLogHandlerIntendedDifferences pins each place where the TextHandler
// behind LogHandler writes other bytes than the frozen renderer: it quotes
// keys that need quoting and values holding a control byte other than tab
// or newline, invalid UTF-8, or a Unicode space or non-printing rune, which
// the frozen renderer wrote raw; it renders time.Time values as RFC 3339,
// structs with %+v, an encoding.TextMarshaler through MarshalText and a
// []byte as a quoted string. The serving layer logs none of these.
func TestLogHandlerIntendedDifferences(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		attr     slog.Attr
		now, was string
	}{
		{slog.Int("a b", 1), `"a b"=1`, "a b=1"},
		{slog.Int("", 1), `""=1`, "=1"},
		{slog.Int("k\n", 1), `"k\n"=1`, "k\n=1"},
		{slog.String("k", "\r"), `k="\r"`, "k=\r"},
		{slog.String("k", "\x00"), `k="\x00"`, "k=\x00"},
		{slog.String("k", "\xff"), `k="\xff"`, "k=\xff"},
		{slog.String("k", "\u00a0"), `k="\u00a0"`, "k=\u00a0"},
		{slog.String("k", "\u2028"), `k="\u2028"`, "k=\u2028"},
		{slog.Time("k", time.Date(2009, 11, 10, 23, 0, 0, 0, time.UTC)), "k=2009-11-10T23:00:00.000Z", `k="2009-11-10 23:00:00 +0000 UTC"`},
		{slog.Any("k", struct{ A int }{1}), "k={A:1}", "k={1}"},
		{slog.Any("k", textOnly{}), "k=text", "k={}"},
		{slog.Any("k", []byte("ab")), `k="ab"`, `k="[97 98]"`},
	} {
		var now, was bytes.Buffer
		clk := clock.NewVirtual(0)
		slog.New(NewLogHandler(&now, clk, nil)).LogAttrs(context.Background(), slog.LevelInfo, "m", tc.attr)
		slog.New(newFrozenLogHandler(&was, clk, nil)).LogAttrs(context.Background(), slog.LevelInfo, "m", tc.attr)
		const head = "t=0 level=INFO msg=m "
		if want := head + tc.now + "\n"; now.String() != want {
			t.Errorf("LogHandler wrote %q, want %q", now.String(), want)
		}
		if want := head + tc.was + "\n"; was.String() != want {
			t.Errorf("the frozen renderer wrote %q, want %q", was.String(), want)
		}
	}
}

// textOnly implements encoding.TextMarshaler and nothing else.
type textOnly struct{}

func (textOnly) MarshalText() ([]byte, error) { return []byte("text"), nil }

// FuzzLogHandler pins the one-line contract: whatever the message, key and
// string value, LogHandler writes exactly one line, ending in its only
// newline and holding no carriage return. Its seed inputs are the files in
// testdata/fuzz/FuzzLogHandler.
func FuzzLogHandler(f *testing.F) {
	f.Fuzz(func(t *testing.T, msg, key, value string) {
		var buf bytes.Buffer
		log := slog.New(NewLogHandler(&buf, clock.NewVirtual(0), nil))
		log.LogAttrs(context.Background(), slog.LevelInfo, msg, slog.String(key, value))
		body, ok := strings.CutSuffix(buf.String(), "\n")
		if !ok || strings.ContainsAny(body, "\n\r") {
			t.Fatalf("wrote %q, want one line", buf.String())
		}
	})
}
