// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§V), plus micro-benchmarks of the kernels the simulation is
// built from. Run with:
//
//	go test -bench=. -benchmem
//
// Each artefact benchmark regenerates the full experiment through
// internal/experiments — the same code path as cmd/odinsim — so the
// reported time is the cost of reproducing that artefact from scratch.
// The artefacts themselves (rows/series) are printed once by the
// experiment CLI, not here; benchmarks report the regeneration cost.
package odin

import (
	"fmt"
	"io"
	"testing"

	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/decache"
	"odin/internal/dnn"
	"odin/internal/experiments"
	"odin/internal/ou"
	"odin/internal/reram"
	"odin/internal/search"
	"odin/internal/serve"
)

// benchmarkExperiment regenerates one evaluation artefact per iteration.
func benchmarkExperiment(b *testing.B, id string) {
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
	}
}

// BenchmarkTableI regenerates Table I (PIM tile specification).
func BenchmarkTableI(b *testing.B) { benchmarkExperiment(b, "tab1") }

// BenchmarkTableII regenerates Table II (ReRAM crossbar parameters).
func BenchmarkTableII(b *testing.B) { benchmarkExperiment(b, "tab2") }

// BenchmarkFig3 regenerates the layer-wise OU size / sparsity study
// (ResNet18, CIFAR-10, t = t₀).
func BenchmarkFig3(b *testing.B) { benchmarkExperiment(b, "fig3") }

// BenchmarkFig4 regenerates the OU-size distribution shift under drift.
func BenchmarkFig4(b *testing.B) { benchmarkExperiment(b, "fig4") }

// BenchmarkFig5 regenerates the offline vs online (RB/EX) comparison,
// including two policy bootstraps and the warm-up runs.
func BenchmarkFig5(b *testing.B) { benchmarkExperiment(b, "fig5") }

// BenchmarkFig6 regenerates the VGG11 energy/latency comparison over the
// full 10⁸ s horizon (5 configurations × 1000 decision epochs).
func BenchmarkFig6(b *testing.B) { benchmarkExperiment(b, "fig6") }

// BenchmarkFig7 regenerates the accuracy-over-runs study (5 curves).
func BenchmarkFig7(b *testing.B) { benchmarkExperiment(b, "fig7") }

// BenchmarkFig8 regenerates the full cross-workload EDP comparison:
// 9 DNNs × (4 baselines + Odin with leave-one-out bootstrap) × the full
// horizon. This is the heaviest artefact (~17 s per regeneration on a
// 2-core host).
func BenchmarkFig8(b *testing.B) { benchmarkExperiment(b, "fig8") }

// BenchmarkFig9 regenerates the crossbar-size sensitivity study
// (ResNet34 on 128², 64², 32² arrays).
func BenchmarkFig9(b *testing.B) { benchmarkExperiment(b, "fig9") }

// BenchmarkOverhead regenerates the §V.E overhead analysis.
func BenchmarkOverhead(b *testing.B) { benchmarkExperiment(b, "overhead") }

// --- Kernel micro-benchmarks -------------------------------------------

// BenchmarkOUCycleModel measures one OU cycle-count evaluation — the inner
// loop of every search.
func BenchmarkOUCycleModel(b *testing.B) {
	sys := core.DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		b.Fatal(err)
	}
	work := wl.Works[4]
	s := ou.Size{R: 16, C: 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = work.Cycles(s)
	}
}

// BenchmarkCostEvaluate measures a full energy/latency/EDP evaluation of
// one (layer, OU size) pair.
func BenchmarkCostEvaluate(b *testing.B) {
	sys := core.DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		b.Fatal(err)
	}
	cm := sys.Arch.CostModel()
	work := wl.Works[4]
	s := ou.Size{R: 32, C: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cm.Evaluate(work, s)
	}
}

// BenchmarkResourceBoundedSearch measures one RB search (K=3) — the per
// layer per inference-run online cost of Odin.
func BenchmarkResourceBoundedSearch(b *testing.B) {
	sys := core.DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		b.Fatal(err)
	}
	grid := sys.Grid()
	obj := core.LayerObjective(sys, wl, 4, 1e4)
	start := grid.SizeAt(2, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = search.ResourceBounded(grid, obj, start, 3)
	}
}

// BenchmarkExhaustiveSearch measures one EX search (36 configurations) for
// the §V.B overhead comparison; compare with BenchmarkResourceBoundedSearch.
func BenchmarkExhaustiveSearch(b *testing.B) {
	sys := core.DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		b.Fatal(err)
	}
	grid := sys.Grid()
	obj := core.LayerObjective(sys, wl, 4, 1e4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = search.Exhaustive(grid, obj)
	}
}

// BenchmarkPolicyPredict measures one OU-size prediction — the per-layer
// runtime cost §V.E quantifies at 0.14 mW / 0.9 % latency.
func BenchmarkPolicyPredict(b *testing.B) {
	sys := NewSystem()
	pol := NewPolicy(sys, 1)
	f := Features{LayerIndex: 4, LayerCount: 11, Sparsity: 0.6, KernelSize: 3, Time: 1e4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = pol.Predict(f)
	}
}

// BenchmarkPolicyPredictWorkspace measures the same prediction through a
// reused workspace, the way the controller runs line 5 of Algorithm 1.
func BenchmarkPolicyPredictWorkspace(b *testing.B) {
	sys := NewSystem()
	pol := NewPolicy(sys, 1)
	ws := pol.NewWorkspace()
	f := Features{LayerIndex: 4, LayerCount: 11, Sparsity: 0.6, KernelSize: 3, Time: 1e4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = pol.PredictWith(ws, f)
	}
}

// BenchmarkPolicyUpdate measures one 100-epoch policy update on a full
// 50-example buffer — the event §V.E prices at 0.22 µJ of accelerator
// energy.
func BenchmarkPolicyUpdate(b *testing.B) {
	sys := NewSystem()
	grid := sys.Grid()
	var examples []PolicyExample
	for i := 0; i < 50; i++ {
		examples = append(examples, PolicyExample{
			F: Features{LayerIndex: i % 11, LayerCount: 11,
				Sparsity: 0.5, KernelSize: 3, Time: float64(i) * 100},
			Target: grid.SizeAt(i%6, (i+1)%6),
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pol := NewPolicy(sys, uint64(i)+1)
		if _, err := pol.Train(examples, TrainOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerRun measures one full Algorithm 1 inference run on
// VGG11 (11 layer decisions: predict + RB search + bookkeeping).
func BenchmarkControllerRun(b *testing.B) {
	sys := core.DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		b.Fatal(err)
	}
	pol := NewPolicy(sys, 1)
	ctrl, err := core.NewController(sys, wl, pol, core.DefaultControllerOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ctrl.RunInference(float64(i))
	}
}

// BenchmarkControllerLayerDecision measures the per-layer slice of the
// controller hot path — one policy prediction plus the clamp-and-RB-search
// refinement — isolated from per-run bookkeeping. Multiply by the layer
// count for the decision cost of one serving-path batch.
func BenchmarkControllerLayerDecision(b *testing.B) {
	sys := core.DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		b.Fatal(err)
	}
	pol := NewPolicy(sys, 1)
	grid := sys.Grid()
	feat := wl.FeaturesAt(4, 1e4)
	obj := core.LayerObjective(sys, wl, 4, 1e4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		predicted := pol.Predict(feat)
		start := search.ClampFeasible(grid, obj, predicted)
		_ = search.ResourceBounded(grid, obj, start, 3)
	}
}

// BenchmarkControllerLayerDecisionCached measures the same per-layer
// decision slice with the line-6 search replayed from the decision cache
// (internal/decache): the serving steady state once a (layer, age-bucket,
// prediction) decision has been memoized. The line-5 prediction is still
// computed on every call; only the search is replayed. The live-vs-cached
// ratio is the cache's headline win;
// the repository benchmark reports both sides as core.decide_live_ns.rb
// and core.decide_cached_ns (`bash _perfbench/run.sh --workload
// replay-fleet --trace 1`).
func BenchmarkControllerLayerDecisionCached(b *testing.B) {
	sys := core.DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultControllerOptions()
	opts.Cache = decache.New()
	decide, err := core.DecisionBench(sys, wl, NewPolicy(sys, 1), opts, 4, 1e4)
	if err != nil {
		b.Fatal(err)
	}
	decide() // warm: the miss populates the entry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decide()
	}
}

// BenchmarkServeBatchDispatch measures the serving layer end to end on a
// virtual clock: routing, admission, batch coalescing, worker execution,
// and response delivery, amortised per arrival.
//
// rr/chips=2 lands arrivals faster than the service rate so batches
// coalesce (the steady-state serving regime). The drift sub-benchmarks
// take the shape of the replay-fleet benchmark workload at two fleet sizes
// — drift routing, a quota tenant and a priority tenant, chips alternating
// VGG11 and ResNet18 staggered across one forced-reprogram deadline,
// offered 16 times capacity — so the ratio of their ns/op shows how the
// dispatcher's cost per arrival grows with the fleet. Their ns/op depends
// on b.N (a longer trace reaches drift crossings and policy updates), so
// compare commits at a fixed count, such as -benchtime 16384x, the
// replay-fleet trace length.
func BenchmarkServeBatchDispatch(b *testing.B) {
	b.Run("rr/chips=2", benchServeTwoChips)
	for _, chips := range []int{64, 1024} {
		b.Run(fmt.Sprintf("drift/chips=%d", chips), func(b *testing.B) { benchServeFleet(b, chips) })
	}
}

func benchServeTwoChips(b *testing.B) {
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
	gap := ctrl.RunInference(0).Latency / 4 // ~4 arrivals per service time
	b.ReportAllocs()
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
}

// benchServeFleet times b.N arrivals through a drift-routed fleet of the
// given size, built (and its trace drawn) before the timer starts. The
// timer stops once the dispatcher has handled every arrival; the final
// drain is not timed.
func benchServeFleet(b *testing.B, chips int) {
	models := []string{"VGG11", "ResNet18"}
	sys := core.DefaultSystem()
	var lat, deadline float64
	for _, name := range models {
		m, err := dnn.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		wl, err := sys.Prepare(m)
		if err != nil {
			b.Fatal(err)
		}
		ctrl, err := core.NewController(sys, wl, NewPolicy(sys, 1), core.ControllerOptions{})
		if err != nil {
			b.Fatal(err)
		}
		lat = max(lat, ctrl.RunInference(0).Latency)
		if d := ctrl.ForcedReprogramAge(); deadline == 0 || d < deadline {
			deadline = d
		}
	}
	clk := clock.NewVirtual(0)
	cfg := serve.Config{
		Router: "drift",
		Tenants: []serve.TenantConfig{
			{Name: "bulk", Quota: chips * 8 / 2},
			{Name: "gold", Priority: 1},
		},
		QueueDepth: 8,
		MaxBatch:   8,
		Clock:      clk,
	}
	for i := 0; i < chips; i++ {
		cfg.Chips = append(cfg.Chips, serve.ChipConfig{
			Model:        models[i%len(models)],
			Seed:         uint64(i) + 1,
			ProgrammedAt: -deadline * float64(i) / float64(chips),
		})
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := serve.GenTrace(serve.TraceConfig{
		Seed: 1, Rate: 16 * float64(chips) / lat, Requests: b.N,
		Models: models, Tenants: []string{"bulk", "gold"},
	})
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	chans := make([]<-chan serve.Response, len(tr))
	b.ReportAllocs()
	b.ResetTimer()
	for i, a := range tr {
		clk.Set(a.Time)
		chans[i] = srv.SubmitAs(a.Model, a.Tenant)
	}
	// A fleet op queues behind every arrival, so its reply marks the last
	// one handled.
	if _, err := srv.FleetInfo(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	srv.Close()
	for _, ch := range chans {
		<-ch
	}
}

// BenchmarkCrossbarMVM measures the reference non-ideal 128×128 MVM used
// by the device-level studies.
func BenchmarkCrossbarMVM(b *testing.B) {
	xbar := reram.NewCrossbar(128, reram.DefaultDeviceParams())
	xbar.Program(RandomWeights(128, 128, "bench-mvm"), 0)
	input := RandomWeights(1, 128, "bench-mvm-in").Row(0)
	opts := reram.MVMOptions{OURows: 16, OUCols: 16, SimTime: 1e4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = xbar.MVM(input, opts)
	}
}

// BenchmarkModelMapping measures placing a full DNN onto the platform's
// crossbars.
func BenchmarkModelMapping(b *testing.B) {
	sys := core.DefaultSystem()
	model := dnn.NewDenseNet121()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = sys.Arch.MapModel(model)
	}
}
