package serve

import (
	"bytes"
	"math"
	"testing"

	"odin/internal/clock"
)

// replayOnce builds a fresh fleet on a fresh virtual clock and replays tr
// through it with the given worker count.
func replayOnce(t testing.TB, tr Trace, chips, workers int) ReplayResult {
	t.Helper()
	clk := clock.NewVirtual(0)
	cfg := Config{
		Clock:      clk,
		QueueDepth: 4,
		MaxBatch:   4,
		Workers:    workers,
	}
	for i := 0; i < chips; i++ {
		cfg.Chips = append(cfg.Chips, ChipConfig{Custom: tinyModel("tiny"), Seed: uint64(i) + 1})
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	return Replay(s, clk, tr)
}

// overloadTrace generates an arrival trace hot enough (relative to the tiny
// model's service latency) to exercise queueing, coalescing, and shedding.
func overloadTrace(t testing.TB, n int) Trace {
	t.Helper()
	lat := probeLatency(t)
	if !(lat > 0) {
		t.Fatalf("probe latency %g not positive", lat)
	}
	tr, err := GenTrace(TraceConfig{
		Seed:     7,
		Rate:     3 / lat, // ~3 arrivals per service time on one chip
		Requests: n,
		Models:   []string{"tiny"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGenTraceDeterministicAndMonotone(t *testing.T) {
	t.Parallel()
	cfg := TraceConfig{Seed: 3, Rate: 100, Requests: 200, Models: []string{"a", "b"}}
	a, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	prev := 0.0
	for i := range a {
		if math.Float64bits(a[i].Time) != math.Float64bits(b[i].Time) || a[i].Model != b[i].Model {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Time < prev {
			t.Fatalf("arrival %d time %g before predecessor %g", i, a[i].Time, prev)
		}
		prev = a[i].Time
	}
	if _, err := GenTrace(TraceConfig{Seed: 1, Rate: 0, Requests: 1, Models: []string{"a"}}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := GenTrace(TraceConfig{Seed: 1, Rate: 1, Requests: 0, Models: []string{"a"}}); err == nil {
		t.Error("zero request count accepted")
	}
	if _, err := GenTrace(TraceConfig{Seed: 1, Rate: 1, Requests: 1}); err == nil {
		t.Error("empty model mix accepted")
	}
}

// TestReplayDeterministic is the acceptance check: the same trace replayed
// on two fresh fleets produces byte-identical decision logs and identical
// aggregate energy/latency — and the result must also be independent of the
// worker-pool size (1 worker vs one per chip plus slack), because batch
// composition depends only on virtual time.
func TestReplayDeterministic(t *testing.T) {
	t.Parallel()
	tr := overloadTrace(t, 300)

	base := replayOnce(t, tr, 2, 2)
	if base.Shed == 0 {
		t.Error("overload trace shed nothing; admission control untested")
	}
	if base.Admitted == 0 {
		t.Fatal("overload trace served nothing")
	}
	coalesced := false
	batchSize := map[int]map[uint64]int{0: {}, 1: {}}
	for _, r := range base.Responses {
		if r.Err == "" && !r.Shed {
			batchSize[r.Chip][r.Batch]++
			if batchSize[r.Chip][r.Batch] > 1 {
				coalesced = true
			}
		}
	}
	if !coalesced {
		t.Error("overload trace never coalesced a batch")
	}

	var baseLog bytes.Buffer
	if err := base.WriteLog(&baseLog); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 5} {
		got := replayOnce(t, tr, 2, workers)
		if got.Checksum != base.Checksum {
			t.Errorf("workers=%d checksum %#x, want %#x", workers, got.Checksum, base.Checksum)
		}
		var log bytes.Buffer
		if err := got.WriteLog(&log); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(log.Bytes(), baseLog.Bytes()) {
			t.Errorf("workers=%d decision log differs from baseline", workers)
		}
		if math.Float64bits(got.Energy) != math.Float64bits(base.Energy) {
			t.Errorf("workers=%d energy %g, want bit-identical %g", workers, got.Energy, base.Energy)
		}
		if math.Float64bits(got.Latency) != math.Float64bits(base.Latency) {
			t.Errorf("workers=%d latency %g, want bit-identical %g", workers, got.Latency, base.Latency)
		}
		if math.Float64bits(got.Wait) != math.Float64bits(base.Wait) {
			t.Errorf("workers=%d wait %g, want bit-identical %g", workers, got.Wait, base.Wait)
		}
		if got.Admitted != base.Admitted || got.Shed != base.Shed || got.Reprogram != base.Reprogram {
			t.Errorf("workers=%d counts (%d adm, %d shed, %d reprog), want (%d, %d, %d)",
				workers, got.Admitted, got.Shed, got.Reprogram,
				base.Admitted, base.Shed, base.Reprogram)
		}
	}
}

// TestReplayNominalRateNoShed is the property `make smoke`'s -max-shed 0
// replay checks from the CLI: well below fleet capacity, admission control
// never fires and every request is served.
func TestReplayNominalRateNoShed(t *testing.T) {
	t.Parallel()
	lat := probeLatency(t)
	tr, err := GenTrace(TraceConfig{
		Seed:     11,
		Rate:     0.2 / lat, // one arrival per five service times, two chips
		Requests: 60,
		Models:   []string{"tiny"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := replayOnce(t, tr, 2, 2)
	if res.Shed != 0 || res.Errors != 0 {
		t.Fatalf("nominal rate shed %d, errored %d; want 0/0", res.Shed, res.Errors)
	}
	if res.Admitted != len(tr) {
		t.Fatalf("admitted %d of %d", res.Admitted, len(tr))
	}
	if !(res.Energy > 0) {
		t.Fatalf("aggregate energy %g not positive", res.Energy)
	}
}
