package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"testing"

	"odin/internal/check"
	"odin/internal/clock"
	"odin/internal/obs"
	"odin/internal/pulse"
	"odin/internal/telemetry"
)

// actionReplay is the observed replay that exercises every serve action:
// an overloaded 3-chip drift-routed fleet with a one-pass reprogram
// budget, two quota'd tenants plus the default class, and the standard
// churn schedule. A pulse bus, a tracer and a deterministic logger ride on
// the fleet's registry.
func actionReplay(t *testing.T, workers int) actionViews {
	t.Helper()
	const chips, n = 3, 400
	sys := driftSystem()
	clk := clock.NewVirtual(0)
	reg := telemetry.NewRegistry()
	var logBuf bytes.Buffer
	cfg := Config{
		Clock:           clk,
		System:          &sys,
		Router:          "drift",
		QueueDepth:      3,
		MaxBatch:        3,
		ReprogramBudget: 1,
		Workers:         workers,
		Registry:        reg,
		Pulse:           pulse.New(pulse.Options{Registry: reg}),
		Tracer:          obs.New(),
		Logger:          slog.New(obs.NewLogHandler(&logBuf, clk, nil)),
		Tenants: []TenantConfig{
			{Name: "gold", Quota: 4, Priority: 1},
			{Name: "bronze", Quota: 5},
		},
	}
	for i := 0; i < chips; i++ {
		cfg.Chips = append(cfg.Chips, ChipConfig{Custom: tinyModel("tiny"), Seed: uint64(i) + 1})
	}
	tr, err := GenTrace(TraceConfig{
		Seed:     5,
		Rate:     1.2 * chips / probeLatency(t),
		Requests: n,
		Models:   []string{"tiny"},
		Tenants:  []string{"gold", "bronze", ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ReplayOps(s, clk, tr, churnOps(n, chips))
	var expo, pulseLog, trace bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Pulse.WriteLog(&pulseLog); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	return actionViews{expo: expo.Bytes(), log: logBuf.Bytes(),
		pulse: pulseLog.Bytes(), trace: trace.Bytes()}
}

// actionViews are the views of one actionReplay: the /metrics exposition,
// the log, the canonical pulse log and the Chrome trace.
type actionViews struct {
	expo, log, pulse, trace []byte
}

// sampleValue returns the value of the exposition line for series (a
// metric name plus its label set, exactly as exposed), or -1 when absent.
func sampleValue(t *testing.T, expo []byte, series string) float64 {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(expo))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return f
		}
	}
	return -1
}

// TestMetricsExpositionGolden freezes the /metrics exposition of a replay
// that takes every serve action, so a refactor of the emitters must
// reproduce it byte for byte. Regenerate with
// `go test -run TestMetricsExpositionGolden -update ./internal/serve/`.
func TestMetricsExpositionGolden(t *testing.T) {
	t.Parallel()
	expo := actionReplay(t, 1).expo

	// Every action path must have fired, so a retuned configuration cannot
	// silently drop one from the golden.
	shed := sampleValue(t, expo, "odinserve_shed_total")
	quota := sampleValue(t, expo, "odinserve_quota_shed_total")
	evicted := sampleValue(t, expo, "odinserve_evicted_total")
	if queue := shed - quota - evicted; queue <= 0 {
		t.Errorf("no queue sheds (shed %g, quota %g, evicted %g)", shed, quota, evicted)
	}
	for _, series := range []string{
		"odinserve_quota_shed_total",
		"odinserve_evicted_total",
		"odinserve_maintenance_reprograms_total",
		"odinserve_reprogram_on_path_requests_total",
		"odinserve_chips_added_total",
		"odinserve_chips_removed_total",
	} {
		if v := sampleValue(t, expo, series); v <= 0 {
			t.Errorf("%s = %g; want a nonzero count", series, v)
		}
	}
	degraded := 0
	for chip := 0; chip < 5; chip++ { // 3 seed chips + 2 hot adds
		if sampleValue(t, expo, `odinserve_chip_degraded{chip="`+strconv.Itoa(chip)+`"}`) == 1 {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("no chip reached its reprogram budget")
	}

	// The families the benchmark harness scrapes are pinned by name, so a
	// golden regenerated with -update cannot drop one unnoticed.
	for _, series := range []string{
		"odinserve_requests_total",
		"odinserve_completed_total",
		"odinserve_batch_size_sum",
		"odinserve_batch_size_count",
		"odinserve_shed_total",
		"odinserve_evicted_total",
		"odinserve_maintenance_reprograms_total",
		"odinserve_reprogram_on_path_requests_total",
	} {
		if sampleValue(t, expo, series) < 0 {
			t.Errorf("exposition lacks %s", series)
		}
	}

	check.Golden(t, "testdata/metrics.golden", expo)
}

// TestMetricsExpositionWorkerInvariance replays the same trace at workers
// 1 and 8: the expositions must match byte for byte. The fleet has quotas,
// so its dispatcher runs every batch and even the odin_decache_* hit/miss
// split, which a worker pool leaves to scheduling, is fixed.
func TestMetricsExpositionWorkerInvariance(t *testing.T) {
	t.Parallel()
	one, eight := actionReplay(t, 1).expo, actionReplay(t, 8).expo
	if !bytes.Equal(one, eight) {
		t.Errorf("exposition differs between workers 1 and 8:\n%s", check.DiffLines(string(one), string(eight)))
	}
}

// TestLogWorkerInvariance pins the log of the same replay byte for byte at
// workers 1 and 8: each line carries the virtual time of the action it
// reports, never a clock read that races the replay's submitter.
func TestLogWorkerInvariance(t *testing.T) {
	t.Parallel()
	one, eight := actionReplay(t, 1).log, actionReplay(t, 8).log
	for _, msg := range []string{`msg="chip added"`, `msg="chip removed"`, `msg="chip degraded"`, `msg="fleet drained"`} {
		if !bytes.Contains(one, []byte(msg)) {
			t.Errorf("log carries no %s line", msg)
		}
	}
	if !bytes.Equal(one, eight) {
		t.Errorf("log differs between workers 1 and 8:\n%s", check.DiffLines(string(one), string(eight)))
	}
}

// Pins of actionReplay's pulse log and Chrome trace, too large for golden
// files (about 68 KB and 181 KB): their SHA-256 sums.
const (
	actionPulseSHA = "4ede9549753b5174a5b74dd19e8d3983de9b291536bc9965c49bd208ae324628"
	actionTraceSHA = "cf55b354a03904d2da9db2194ece50c0a573d8d567df6782bc07d9f128a601f8"
)

// TestActionReplayViewsPinned freezes the log, the canonical pulse log and
// the Chrome trace of the replay that takes every serve action, at workers
// 1 and 8, so a refactor of the emitters or of the controller's run
// bookkeeping must reproduce every view byte for byte. The log is a golden
// file; regenerate it with
// `go test -run TestActionReplayViewsPinned -update ./internal/serve/`.
func TestActionReplayViewsPinned(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{1, 8} {
		v := actionReplay(t, workers)
		check.Golden(t, "testdata/action_log.golden", v.log)
		for _, pin := range []struct {
			name string
			got  []byte
			want string
		}{{"pulse log", v.pulse, actionPulseSHA}, {"trace", v.trace, actionTraceSHA}} {
			if sum := fmt.Sprintf("%x", sha256.Sum256(pin.got)); sum != pin.want {
				t.Errorf("workers=%d: %s (%d bytes) has SHA-256 %s, want %s",
					workers, pin.name, len(pin.got), sum, pin.want)
			}
		}
	}
}
