package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// env is what a workload run is given: the seed its inputs are drawn from,
// the measuring time, and where the built binaries are.
type env struct {
	seed    uint64
	seconds float64
	binDir  string
	name    string // the workload's name
}

// mode selects how much of a workload one call measures.
type mode int

const (
	// timed loops whole units of work until the run's seconds are spent
	// and reports the end-to-end metrics.
	timed mode = iota
	// once measures untraced for half the run: the traced run's reference.
	once
	// traced measures for half the run under a CPU profile and collects
	// the workload's per-layer counters.
	traced
)

// pass is what one call of a workload measured.
type pass struct {
	e2e   metrics // end-to-end metrics (timed)
	layer metrics // workload-specific per-layer metrics (traced)
	// cost is the number a traced pass is compared on for
	// trace_overhead_frac: the median unit wall time, or for serve-http the
	// mean request latency at the light-load rung.
	cost      float64
	attempted int
	failed    int
	profile   []byte // gzipped pprof CPU profile of a traced pass
}

func newPass() *pass { return &pass{e2e: metrics{}, layer: metrics{}} }

// workload is one named benchmark workload.
type workload struct {
	// run measures the workload in mode m.
	run func(e *env, m mode) (*pass, error)
	// own lists the workload-specific per-layer metrics (the groups below)
	// this workload's traced pass produces. Every other per-layer metric
	// is produced by every traced pass. A workload-specific metric of a
	// layer the workload does not run reads 0; any other missing metric
	// is an error.
	own []string
}

// Per-layer metrics of layers only some workloads run.
var (
	fig8Layers = []string{"experiments.alloc_gb", "experiments.gc_cycles"}
	// servedLayers are read from a serving fleet's public counters.
	servedLayers = []string{
		"serve.new_server_s", "serve.metrics_scrape_ms",
		"serve.batch_size_mean", "serve.shed_frac", "serve.evicted",
		"serve.maintenance_reprograms", "serve.reprogram_on_path",
		"core.policy_updates", "decache.decision_hit_ratio", "decache.predict_hit_ratio",
	}
	// spanLayers are the benchmark's own spans around a replay's calls.
	spanLayers = []string{"serve.submit_us_p99", "serve.add_chip_ms", "serve.remove_chip_ms", "serve.drain_s"}
)

// workloads are the benchmark's workloads; BENCHMARK.json and LAYERS.md
// say why each was chosen.
var workloads = map[string]workload{
	"sim-fig8":     {run: simFig8, own: fig8Layers},
	"serve-http":   {run: serveHTTP, own: servedLayers},
	"replay-fleet": {run: replayFleet, own: append(append([]string{}, servedLayers...), spanLayers...)},
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// notRun returns the per-layer metrics of layers w does not run.
func (w workload) notRun() map[string]bool {
	out := map[string]bool{}
	for _, o := range workloads {
		for _, n := range o.own {
			out[n] = true
		}
	}
	for _, n := range w.own {
		delete(out, n)
	}
	return out
}

// decl declares one reported metric. BENCHMARK.json lists the same names,
// units and directions (layout_test.go keeps them in step).
type decl struct {
	name, unit, better string
}

// endToEnd is reported by every workload's untraced run. LAYERS.md gives
// each one's meaning per workload.
var endToEnd = []decl{
	{"setup_s", "s", "lower"},
	{"rate_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
}

// perLayer is reported by every workload's traced run. A metric of a
// layer the workload does not run (workload.notRun) reads 0.
var perLayer = []decl{
	{"policy.update_ms", "ms", "lower"},
	{"policy.update_allocs", "count", "lower"},
	{"mlp.train_example_ns", "ns", "lower"},
	{"mlp.train_example_allocs", "count", "lower"},
	{"mlp.train_example_bytes", "B", "lower"},
	{"core.bootstrap_s", "s", "lower"},
	{"core.horizon_odin_s", "s", "lower"},
	{"core.horizon_baseline_s", "s", "lower"},
	{"experiments.alloc_gb", "GB", "lower"},
	{"experiments.gc_cycles", "count", "lower"},
	{"policy.predict_ns", "ns", "lower"},
	{"policy.predict_allocs", "count", "lower"},
	{"core.run_inference_us", "us", "lower"},
	{"core.run_inference_allocs", "count", "lower"},
	{"core.decide_live_ns.rb", "ns", "lower"},
	{"core.decide_live_ns.bo", "ns", "lower"},
	{"core.decide_cached_ns", "ns", "lower"},
	{"search.rb_ns", "ns", "lower"},
	{"ou.cost_evaluate_ns", "ns", "lower"},
	{"decache.decision_hit_ratio", "ratio", "higher"},
	{"decache.predict_hit_ratio", "ratio", "higher"},
	{"serve.new_server_s", "s", "lower"},
	{"serve.submit_us_p99", "us", "lower"},
	{"serve.add_chip_ms", "ms", "lower"},
	{"serve.remove_chip_ms", "ms", "lower"},
	{"serve.drain_s", "s", "lower"},
	{"serve.batch_size_mean", "count", "higher"},
	{"serve.shed_frac", "ratio", "lower"},
	{"serve.evicted", "count", "lower"},
	{"serve.maintenance_reprograms", "count", "lower"},
	{"serve.reprogram_on_path", "count", "lower"},
	{"core.policy_updates", "count", "lower"},
	{"serve.handler_us", "us", "lower"},
	{"serve.metrics_scrape_ms", "ms", "lower"},
	{"pulse.publish_ns", "ns", "lower"},
	{"cpu_share.mlp", "ratio", "lower"},
	{"cpu_share.mat", "ratio", "lower"},
	{"cpu_share.policy", "ratio", "lower"},
	{"cpu_share.core", "ratio", "lower"},
	{"cpu_share.decache", "ratio", "lower"},
	{"cpu_share.opt", "ratio", "lower"},
	{"cpu_share.search", "ratio", "lower"},
	{"cpu_share.serve", "ratio", "lower"},
	{"cpu_share.pulse", "ratio", "lower"},
	{"cpu_share.telemetry", "ratio", "lower"},
	{"cpu_share.net_http", "ratio", "lower"},
	{"cpu_share.runtime_gc", "ratio", "lower"},
	{"cpu_share.runtime_malloc", "ratio", "lower"},
	{"trace_overhead_frac", "ratio", "lower"},
}

// measure runs one workload in the requested way and assembles its result.
// The untraced run reports the end-to-end metrics. The traced run measures
// an untraced pass, a traced pass of the same length, then the layer
// microbenchmarks, and reports the per-layer metrics.
func measure(e *env, w workload, trace bool) (result, error) {
	if !trace {
		p, err := w.run(e, timed)
		if err != nil {
			return result{}, err
		}
		return finish(p.e2e, endToEnd, p.attempted, p.failed, nil)
	}
	ref, err := w.run(e, once)
	if err != nil {
		return result{}, err
	}
	p, err := w.run(e, traced)
	if err != nil {
		return result{}, err
	}
	// Kept for go tool pprof; cpu_share.* are read from the same bytes.
	if err := os.WriteFile(filepath.Join(e.binDir, e.name+"-cpu.pprof"), p.profile, 0o644); err != nil {
		return result{}, err
	}
	out := p.layer
	shares, err := cpuShares(p.profile)
	if err != nil {
		return result{}, err
	}
	for name, v := range shares {
		out.set("cpu_share."+name, v, "ratio")
	}
	if ref.cost <= 0 || p.cost <= 0 {
		return result{}, fmt.Errorf("trace overhead: pass costs %g untraced, %g traced", ref.cost, p.cost)
	}
	out.set("trace_overhead_frac", p.cost/ref.cost, "ratio")
	if err := microLayers(out); err != nil {
		return result{}, err
	}
	return finish(out, perLayer, ref.attempted+p.attempted, ref.failed+p.failed, w.notRun())
}

// finish checks the reported names against their declarations. A declared
// metric that was not measured is an error, except for the names in
// absent (layers the workload does not run), which read 0.
func finish(m metrics, decls []decl, attempted, failed int, absent map[string]bool) (result, error) {
	known := map[string]bool{}
	for _, d := range decls {
		known[d.name] = true
		v, ok := m[d.name]
		switch {
		case !ok && absent[d.name]:
			m.set(d.name, 0, d.unit)
		case !ok:
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		case absent[d.name]:
			return result{}, fmt.Errorf("metric %s is measured by a workload that does not declare it", d.name)
		case v.Unit != d.unit:
			return result{}, fmt.Errorf("metric %s has unit %q, declared %q", d.name, v.Unit, d.unit)
		}
	}
	for name := range m {
		if !known[name] {
			return result{}, fmt.Errorf("metric %s is not declared", name)
		}
	}
	if attempted < 1 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// budget is how many seconds one call in mode m measures: the whole run
// when timed, half of it for each of the traced run's two passes.
func (e *env) budget(m mode) float64 {
	if m == timed {
		return e.seconds
	}
	return e.seconds / 2
}

// another reports whether a loop in mode m that has run for elapsed
// seconds, its last unit taking last seconds, should start one more unit:
// only when that unit is expected to end within the budget (10% slack).
func (e *env) another(m mode, elapsed, last float64) bool {
	return elapsed+last <= 1.1*e.budget(m)
}
