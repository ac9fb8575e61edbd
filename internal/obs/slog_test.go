package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"odin/internal/clock"
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
