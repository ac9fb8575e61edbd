package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/decache"
	"odin/internal/dnn"
	"odin/internal/mlp"
	"odin/internal/ou"
	"odin/internal/policy"
	"odin/internal/pulse"
	"odin/internal/search"
	"odin/internal/serve"
	"odin/internal/telemetry"
)

// sinkSize keeps timed calls' results alive.
var sinkSize ou.Size

// timeOp calls fn n times per sample over the given number of samples and
// returns the median per-call nanoseconds, heap allocations and bytes.
func timeOp(samples, n int, fn func()) (ns, allocs, bytes float64) {
	var before, after runtime.MemStats
	var ts, as, bs []float64
	for s := 0; s < samples; s++ {
		runtime.ReadMemStats(&before)
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		el := time.Since(t)
		runtime.ReadMemStats(&after)
		ts = append(ts, float64(el.Nanoseconds())/float64(n))
		as = append(as, float64(after.Mallocs-before.Mallocs)/float64(n))
		bs = append(bs, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
	}
	return median(ts), median(as), median(bs)
}

// microLayers times single calls into each layer's exported functions on
// VGG11 layer 4 at device age 10⁴ s (the operating point of the repo's
// kernel benchmarks) and records them in out.
func microLayers(out metrics) error {
	sys := core.DefaultSystem()
	grid := sys.Grid()
	vgg, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		return err
	}
	feat := vgg.FeaturesAt(4, 1e4)

	pol := policy.New(policy.Config{Grid: grid, Seed: 1})
	ns, allocs, _ := timeOp(9, 20000, func() { sinkSize = pol.Predict(feat) })
	out.set("policy.predict_ns", ns, "ns")
	out.set("policy.predict_allocs", allocs, "count")

	// One line-11 update: 100 epochs over a full 50-example buffer, with
	// the controller's training options.
	var examples []policy.Example
	for i := 0; i < 50; i++ {
		examples = append(examples, policy.Example{
			F:      vgg.FeaturesAt(i%vgg.Layers(), float64(i)*100),
			Target: grid.SizeAt(i%grid.Levels(), (i+1)%grid.Levels()),
		})
	}
	upd := mlp.TrainOptions{Epochs: 100, Seed: 1}
	var trainErr error
	ns, allocs, _ = timeOp(15, 1, func() {
		if _, err := pol.Train(examples, upd); err != nil {
			trainErr = err
		}
	})
	if trainErr != nil {
		return trainErr
	}
	out.set("policy.update_ms", ns/1e6, "ms")
	out.set("policy.update_allocs", allocs, "count")

	// The same update on the bare network, per example and epoch.
	net := mlp.New(mlp.Config{InputDim: len(feat.Vector()), Hidden: []int{16},
		Heads: []int{grid.Levels(), grid.Levels()}, Seed: 1})
	var mex []mlp.Example
	for _, e := range examples {
		r, c, _ := grid.IndexOf(e.Target)
		mex = append(mex, mlp.Example{Input: e.F.Vector(), Targets: []int{r, c}})
	}
	ns, allocs, bytes := timeOp(15, 1, func() { net.Train(mex, upd) })
	per := float64(len(mex) * upd.Epochs)
	out.set("mlp.train_example_ns", ns/per, "ns")
	out.set("mlp.train_example_allocs", allocs/per, "count")
	out.set("mlp.train_example_bytes", bytes/per, "B")

	// Fig. 8's per-workload steps for VGG11: the leave-one-out bootstrap
	// (every family but VGG), then the Odin and the 16×16 horizons.
	t := time.Now()
	boot, _, err := core.BootstrapPolicy(sys, core.LeaveOut(dnn.AllWorkloads(), "VGG"), core.DefaultBootstrapConfig())
	if err != nil {
		return err
	}
	out.set("core.bootstrap_s", since(t), "s")
	horizon := core.HorizonConfig{End: 1e8, Epochs: 1000}
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		return err
	}
	ctrl, err := core.NewController(sys, wl, boot, core.DefaultControllerOptions())
	if err != nil {
		return err
	}
	t = time.Now()
	core.SimulateHorizon(ctrl, horizon)
	out.set("core.horizon_odin_s", since(t), "s")
	if wl, err = sys.Prepare(dnn.NewVGG11()); err != nil {
		return err
	}
	base, err := core.NewBaseline(sys, wl, ou.Size{R: 16, C: 16})
	if err != nil {
		return err
	}
	t = time.Now()
	core.SimulateHorizon(base, horizon)
	out.set("core.horizon_baseline_s", since(t), "s")

	// A full Algorithm 1 run from a fresh policy, training included.
	run, err := core.NewController(sys, vgg, policy.New(policy.Config{Grid: grid, Seed: 1}), core.DefaultControllerOptions())
	if err != nil {
		return err
	}
	age := 0.0
	ns, allocs, _ = timeOp(5, 200, func() { age++; run.RunInference(age) })
	out.set("core.run_inference_us", ns/1e3, "us")
	out.set("core.run_inference_allocs", allocs, "count")

	// The line-6 decision, live per strategy and replayed from the cache.
	for _, strategy := range []string{"rb", "bo"} {
		opts := core.DefaultControllerOptions()
		opts.Strategy = strategy
		opts.DisableDecisionCache = true
		decide, err := core.DecisionBench(sys, vgg, pol, opts, 4, 1e4)
		if err != nil {
			return err
		}
		ns, _, _ = timeOp(9, 500, decide)
		out.set("core.decide_live_ns."+strategy, ns, "ns")
	}
	opts := core.DefaultControllerOptions()
	opts.Cache = decache.New()
	decide, err := core.DecisionBench(sys, vgg, pol, opts, 4, 1e4)
	if err != nil {
		return err
	}
	decide() // the miss fills the entry
	ns, _, _ = timeOp(9, 20000, decide)
	out.set("core.decide_cached_ns", ns, "ns")

	obj := core.LayerObjective(sys, vgg, 4, 1e4)
	start := grid.SizeAt(2, 2)
	ns, _, _ = timeOp(9, 2000, func() { sinkSize = search.ResourceBounded(grid, obj, start, 3).Best })
	out.set("search.rb_ns", ns, "ns")
	cm := sys.Arch.CostModel()
	var cost ou.Cost
	ns, _, _ = timeOp(9, 100000, func() { cost = cm.Evaluate(vgg.Works[4], ou.Size{R: 32, C: 8}) })
	if cost.Energy <= 0 {
		return fmt.Errorf("cost model returned no energy")
	}
	out.set("ou.cost_evaluate_ns", ns, "ns")

	bus := pulse.New(pulse.Options{Ring: 8192, Registry: telemetry.NewRegistry()})
	bus.Register(0, "VGG11")
	ev := pulse.Event{Kind: pulse.KindBatch, Model: "VGG11", Size: 4, Latency: 1e-3, Energy: 1e-6}
	ns, _, _ = timeOp(9, 20000, func() { ev.Time += 1e-3; bus.Publish(ev) })
	out.set("pulse.publish_ns", ns, "ns")

	return handlerLayer(out)
}

// handlerLayer times POST /infer through serve.NewHandler in-process on a
// live 2-chip server: the HTTP surface without the network.
func handlerLayer(out metrics) error {
	s, err := serve.NewServer(serve.Config{
		Chips: []serve.ChipConfig{{Model: "VGG11"}, {Model: "VGG11"}},
		Clock: clock.NewReal(), Live: true,
	})
	if err != nil {
		return err
	}
	s.Start()
	defer s.Close()
	h := serve.NewHandler(s)
	var lats []float64
	for i := 0; i < 600; i++ {
		req := httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(`{"model":"VGG11"}`))
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		if i >= 100 { // the first calls train the fresh policies hardest
			lats = append(lats, 1e6*since(t))
		}
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process /infer answered %d", rec.Code)
		}
	}
	out.set("serve.handler_us", median(lats), "us")
	return nil
}

// newServerLayer times serve.NewServer for the shipped 2-chip fleet.
func newServerLayer(out metrics) error {
	var secs []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, err := serve.NewServer(serve.Config{
			Chips: []serve.ChipConfig{{Model: "VGG11"}, {Model: "VGG11"}},
			Clock: clock.NewReal(), Live: true,
		}); err != nil {
			return err
		}
		secs = append(secs, since(t))
	}
	out.set("serve.new_server_s", median(secs), "s")
	return nil
}
