package serve

import (
	"runtime"
	"testing"

	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/policy"
)

// arrivalAllocBudget bounds the heap allocations per arrival on the
// replay-fleet path, at every fleet size. What remains is SubmitAs's own
// allocations plus, amortised over the trace, batch bookkeeping, map
// growth on decision-cache stores and training-buffer growth; line 5's
// prediction, every decision-cache hit and the rb search behind a miss
// allocate nothing.
const arrivalAllocBudget = 5

// newServerAllocBudget bounds NewServer's heap allocations per chip on the
// replay-fleet shape, at every fleet size. Each distinct model is prepared
// once per fleet, so what a chip adds is its own policy network,
// controller and dispatcher record.
const newServerAllocBudget = 40

// fleetModels are the two zoo models of the replay-fleet shape.
var fleetModels = []string{"VGG11", "ResNet18"}

// fleetConfig returns the shape of the replay-fleet benchmark workload at
// the given fleet size, on a fresh virtual clock: drift routing, a quota
// tenant and a priority tenant, chips alternating VGG11 and ResNet18
// staggered across one forced-reprogram deadline. lat is the slower
// model's service latency on a fresh chip.
func fleetConfig(t testing.TB, chips int) (cfg Config, clk *clock.Virtual, lat float64) {
	t.Helper()
	sys := core.DefaultSystem()
	var deadline float64
	for _, name := range fleetModels {
		m, err := dnn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := sys.Prepare(m)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := core.NewController(sys, wl, policy.New(policy.Config{Grid: sys.Grid(), Seed: 1}), core.ControllerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lat = max(lat, ctrl.RunInference(0).Latency)
		if d := ctrl.ForcedReprogramAge(); deadline == 0 || d < deadline {
			deadline = d
		}
	}
	clk = clock.NewVirtual(0)
	cfg = Config{
		Router: "drift",
		Tenants: []TenantConfig{
			{Name: "bulk", Quota: chips * 8 / 2},
			{Name: "gold", Priority: 1},
		},
		QueueDepth: 8,
		MaxBatch:   8,
		Clock:      clk,
	}
	for i := 0; i < chips; i++ {
		cfg.Chips = append(cfg.Chips, ChipConfig{
			Model:        fleetModels[i%len(fleetModels)],
			Seed:         uint64(i) + 1,
			ProgrammedAt: -deadline * float64(i) / float64(chips),
		})
	}
	return cfg, clk, lat
}

// TestArrivalAllocsFlatInFleetSize replays the replay-fleet shape at 64
// and at 1024 chips, offered 16 times capacity, for 16,384 arrivals. It
// counts heap allocations from the first arrival until the dispatcher has
// handled the last one, so building the fleet is not counted, and bounds
// them per arrival by the same arrivalAllocBudget at both sizes: the
// dispatcher's cost per arrival must not grow with the fleet. The count is
// process-wide, so the test does not run in parallel.
func TestArrivalAllocsFlatInFleetSize(t *testing.T) {
	for _, chips := range []int{64, 1024} {
		got := arrivalAllocs(t, chips, 16384)
		t.Logf("%d chips: %.2f allocations per arrival", chips, got)
		if got > arrivalAllocBudget {
			t.Errorf("%d chips: %.2f allocations per arrival, want at most %d", chips, got, arrivalAllocBudget)
		}
	}
}

// arrivalAllocs replays n arrivals through the replay-fleet shape at the
// given fleet size and returns the heap allocations per arrival.
func arrivalAllocs(t *testing.T, chips, n int) float64 {
	t.Helper()
	cfg, clk, lat := fleetConfig(t, chips)
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenTrace(TraceConfig{
		Seed: 1, Rate: 16 * float64(chips) / lat, Requests: n,
		Models: fleetModels, Tenants: []string{"bulk", "gold"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	chans := make([]<-chan Response, len(tr))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, a := range tr {
		clk.Set(a.Time)
		chans[i] = s.SubmitAs(a.Model, a.Tenant)
	}
	// A fleet op queues behind every arrival, so its reply marks the last
	// one handled.
	if _, err := s.FleetInfo(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	s.Close()
	for _, ch := range chans {
		<-ch
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestNewServerAllocsPerChip builds the replay-fleet shape at 64 and at
// 1024 chips and bounds NewServer's heap allocations per chip by
// newServerAllocBudget at both sizes: preparing a model is paid once per
// fleet, not once per chip. The count is process-wide and includes the
// construction goroutines' allocations, so the test does not run in
// parallel.
func TestNewServerAllocsPerChip(t *testing.T) {
	for _, chips := range []int{64, 1024} {
		cfg, _, _ := fleetConfig(t, chips)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewServer(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / float64(chips)
		t.Logf("%d chips: %.1f allocations and %.0f bytes per chip", chips, got,
			float64(after.TotalAlloc-before.TotalAlloc)/float64(chips))
		if got > newServerAllocBudget {
			t.Errorf("%d chips: %.1f allocations per chip, want at most %d", chips, got, newServerAllocBudget)
		}
	}
}

// BenchmarkNewServer measures building the 1024-chip replay-fleet shape,
// the construction the benchmark's setup_s times.
func BenchmarkNewServer(b *testing.B) {
	cfg, _, _ := fleetConfig(b, 1024)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewServer(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
