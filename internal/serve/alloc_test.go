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
// allocations plus, amortised over the trace, batch bookkeeping,
// decision-cache misses and training-buffer growth; line 5's prediction
// and every decision-cache hit allocate nothing.
const arrivalAllocBudget = 6

// TestArrivalAllocsFlatInFleetSize replays the shape of the replay-fleet
// benchmark workload at 64 and at 1024 chips: drift routing, a quota tenant
// and a priority tenant, chips alternating VGG11 and ResNet18 staggered
// across one forced-reprogram deadline, offered 16 times capacity, for
// 16,384 arrivals. It counts heap allocations from the first arrival until
// the dispatcher has handled the last one, so building the fleet is not
// counted, and bounds them per arrival by the same arrivalAllocBudget at
// both sizes: the dispatcher's cost per arrival must not grow with the
// fleet. The count is process-wide, so the test does not run in parallel.
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
	models := []string{"VGG11", "ResNet18"}
	sys := core.DefaultSystem()
	var lat, deadline float64
	for _, name := range models {
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
	clk := clock.NewVirtual(0)
	cfg := Config{
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
			Model:        models[i%len(models)],
			Seed:         uint64(i) + 1,
			ProgrammedAt: -deadline * float64(i) / float64(chips),
		})
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenTrace(TraceConfig{
		Seed: 1, Rate: 16 * float64(chips) / lat, Requests: n,
		Models: models, Tenants: []string{"bulk", "gold"},
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
