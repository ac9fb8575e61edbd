package serve

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/decache"
	"odin/internal/policy"
)

// replayCached is replayOnce with explicit decision-cache control: disable
// opts the whole fleet out; otherwise NewServer injects one shared cache.
// Chip i is back-dated by i/chips of the tiny model's forced-reprogram
// deadline, as replay-fleet's chips are, so the chips decide at different
// device ages and a shared cache serves decisions from several age
// buckets.
func replayCached(t testing.TB, tr Trace, chips, workers int, disable bool) (ReplayResult, *Server) {
	t.Helper()
	sys := core.DefaultSystem()
	wl, err := sys.Prepare(tinyModel("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	probe, err := core.NewController(sys, wl, policy.New(policy.Config{Grid: sys.Grid(), Seed: 1}), core.ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := probe.ForcedReprogramAge()
	clk := clock.NewVirtual(0)
	cfg := Config{
		Clock:      clk,
		QueueDepth: 4,
		MaxBatch:   4,
		Workers:    workers,
	}
	cfg.Controller.DisableDecisionCache = disable
	for i := 0; i < chips; i++ {
		cfg.Chips = append(cfg.Chips, ChipConfig{Custom: tinyModel("tiny"), Seed: uint64(i) + 1,
			ProgrammedAt: -deadline * float64(i) / float64(chips)})
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	return Replay(s, clk, tr), s
}

// TestReplayCachedByteIdentical pins the serving-layer decision-cache
// contract: a fleet sharing one decision cache replays a trace to the very
// same bytes — response checksum, decision log, energy/latency totals — as
// an uncached fleet, at every worker count. The shared cache must actually
// be exercised (cross-chip and cross-run hits), or the comparison is
// vacuous. Eight chips spread over the deadline put the oldest ones close
// enough to it that a decision served from another age bucket changes
// the log.
func TestReplayCachedByteIdentical(t *testing.T) {
	t.Parallel()
	tr := overloadTrace(t, 200)
	const chips = 8

	base, bs := replayCached(t, tr, chips, 2, true)
	if bs.DecisionCache() != nil {
		t.Fatal("DisableDecisionCache fleet still built a shared cache")
	}
	var baseLog bytes.Buffer
	if err := base.WriteLog(&baseLog); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3} {
		got, s := replayCached(t, tr, chips, workers, false)
		cache := s.DecisionCache()
		if cache == nil {
			t.Fatalf("workers=%d: fleet built no shared decision cache", workers)
		}
		if c := cache.Counters(); c.DecisionHits == 0 {
			t.Errorf("workers=%d: shared cache saw no decision hits", workers)
		}
		if got.Checksum != base.Checksum {
			t.Errorf("workers=%d cached checksum %#x, want uncached %#x", workers, got.Checksum, base.Checksum)
		}
		var log bytes.Buffer
		if err := got.WriteLog(&log); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(log.Bytes(), baseLog.Bytes()) {
			t.Errorf("workers=%d cached decision log differs from uncached baseline", workers)
		}
		if math.Float64bits(got.Energy) != math.Float64bits(base.Energy) {
			t.Errorf("workers=%d cached energy %g, want bit-identical %g", workers, got.Energy, base.Energy)
		}
		if math.Float64bits(got.Latency) != math.Float64bits(base.Latency) {
			t.Errorf("workers=%d cached latency %g, want bit-identical %g", workers, got.Latency, base.Latency)
		}
	}
}

// TestSharedCacheConcurrentChips hammers one decision cache from many
// chip-shaped goroutines at once — the serve worker-pool access pattern —
// and checks every chip still decides exactly what an isolated uncached
// controller decides. Run under -race this doubles as the data-race proof
// for concurrent Lookup/Store on the shared maps.
func TestSharedCacheConcurrentChips(t *testing.T) {
	t.Parallel()
	sys := core.DefaultSystem()
	shared := decache.New()
	const chips = 8
	times := []float64{0, 1e5, 1e5, 3e6, 3e6, 1e7}

	// Reference: one uncached controller per distinct seed.
	refSizes := make(map[uint64][][]int, chips)
	for seed := uint64(1); seed <= 2; seed++ {
		wl, err := sys.Prepare(tinyModel("tiny"))
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultControllerOptions()
		opts.DisableDecisionCache = true
		opts.TrainSeed = seed
		ctrl, err := core.NewController(sys, wl,
			policy.New(policy.Config{Grid: sys.Grid(), Seed: seed}), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, tm := range times {
			rep := ctrl.RunInference(tm)
			row := make([]int, len(rep.Sizes))
			for j, s := range rep.Sizes {
				row[j] = s.R<<16 | s.C
			}
			refSizes[seed] = append(refSizes[seed], row)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, chips)
	for i := 0; i < chips; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := uint64(i%2) + 1 // two policy cohorts → both fresh and shared key streams
			wl, err := sys.Prepare(tinyModel("tiny"))
			if err != nil {
				errs <- err
				return
			}
			opts := core.DefaultControllerOptions()
			opts.Cache = shared
			opts.TrainSeed = seed
			ctrl, err := core.NewController(sys, wl,
				policy.New(policy.Config{Grid: sys.Grid(), Seed: seed}), opts)
			if err != nil {
				errs <- err
				return
			}
			for k, tm := range times {
				rep := ctrl.RunInference(tm)
				for j, s := range rep.Sizes {
					if got, want := s.R<<16|s.C, refSizes[seed][k][j]; got != want {
						errs <- &chipDivergence{chip: i, run: k, layer: j, got: got, want: want}
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c := shared.Counters(); c.DecisionHits == 0 {
		t.Fatal("concurrent chips never hit the shared cache")
	}
}

type chipDivergence struct{ chip, run, layer, got, want int }

func (e *chipDivergence) Error() string {
	return "chip decision diverged from uncached reference"
}
