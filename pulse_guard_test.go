package odin

import (
	"os"
	"testing"

	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/pulse"
	"odin/internal/serve"
)

// pulseGuardSink defeats dead-code elimination in the gate benchmark.
var pulseGuardSink uint64

// pulseGuardBus is package-level so the gate benchmark measures a real
// load + nil test instead of a branch the compiler folds away on a
// provably-nil local.
var pulseGuardBus *pulse.Bus

// TestDisabledPulseOverheadGuard holds the streaming-telemetry layer to
// its budget when switched off. Two claims:
//
//  1. A nil *pulse.Bus is a true no-op: every method returns without
//     allocating — enforced unconditionally, since an allocation on the
//     disabled path is a logic bug, not timing noise.
//  2. The disabled cost per publish site is one pointer test: every site
//     in internal/serve gates event assembly on Enabled(), so a replay
//     with Config.Pulse nil pays sites × (nil test) per request. Armed
//     (ODIN_OVERHEAD_GUARD=1, set by make smoke), the guard measures
//     that gate and requires the per-request total to stay under 2% of
//     the per-request dispatch cost — the same budget the obs guard
//     enforces for disabled tracing.
func TestDisabledPulseOverheadGuard(t *testing.T) {
	var bus *pulse.Bus
	if bus.Enabled() {
		t.Fatal("nil bus reports Enabled")
	}
	ev := pulse.Event{Kind: pulse.KindBatch, Chip: 0, Model: "VGG11",
		Batch: 1, Size: 4, Latency: 1e-3, Energy: 1e-6}
	allocs := testing.AllocsPerRun(200, func() {
		bus.Publish(ev)
		bus.Register(0, "VGG11")
		if bus.Since(0) != nil {
			t.Fatal("nil Since returned events")
		}
		pulseGuardSink += bus.LastSeq()
		st := bus.Snapshot()
		pulseGuardSink += uint64(len(st.Chips))
	})
	if allocs != 0 {
		t.Fatalf("nil bus allocates %.1f objects per publish round; disabled pulse must be allocation-free", allocs)
	}

	if os.Getenv("ODIN_OVERHEAD_GUARD") != "1" {
		t.Skip("timing guard disarmed; set ODIN_OVERHEAD_GUARD=1 (make smoke) to enforce")
	}

	// The disabled publish site: the Enabled() nil test, nothing else —
	// event assembly sits behind the gate at every site in internal/serve.
	gateRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if pulseGuardBus.Enabled() {
				pulseGuardSink++
			}
		}
	})
	// NsPerOp truncates to whole ns; the gate is sub-ns, so keep the float.
	gateNs := float64(gateRes.T.Nanoseconds()) / float64(gateRes.N)

	// Per-request dispatch cost on the same fleet shape the serve
	// benchmarks use: steady-state coalescing over two VGG11 chips.
	reqNs := float64(testing.Benchmark(func(b *testing.B) {
		clk := clock.NewVirtual(0)
		srv, err := serve.NewServer(serve.Config{
			Chips:      []serve.ChipConfig{{Model: "VGG11"}, {Model: "VGG11"}},
			QueueDepth: 64,
			MaxBatch:   8,
			Clock:      clk,
		})
		if err != nil {
			b.Fatal(err)
		}
		srv.Start()
		probe := core.DefaultSystem()
		wl, err := probe.Prepare(dnn.NewVGG11())
		if err != nil {
			b.Fatal(err)
		}
		ctrl, err := core.NewController(probe, wl, NewPolicy(probe, 99), core.ControllerOptions{})
		if err != nil {
			b.Fatal(err)
		}
		gap := ctrl.RunInference(0).Latency / 4
		b.ResetTimer()
		chans := make([]<-chan serve.Response, b.N)
		for i := 0; i < b.N; i++ {
			clk.Set(float64(i) * gap)
			chans[i] = srv.Submit("VGG11")
		}
		srv.Close()
		for _, ch := range chans {
			<-ch
		}
	}).NsPerOp())

	// Gates crossed per served request: admission shed check, start-batch
	// depth capture, batch retirement (which also publishes the run's
	// decision summary), forced-reprogram booking, maintenance pass — call
	// it 8 to stay conservative.
	const sitesPerRequest = 8
	overhead := gateNs * sitesPerRequest / reqNs
	t.Logf("pulse gate %.2f ns, request dispatch %.0f ns, disabled overhead %.4f%% (%d sites)",
		gateNs, reqNs, overhead*100, sitesPerRequest)
	if overhead > 0.02 {
		t.Fatalf("disabled pulse costs %.2f%% of per-request dispatch (budget 2%%)", overhead*100)
	}
}
