package core

import "odin/internal/policy"

// DecisionBench returns a closure executing one per-layer line-6 decision
// — policy prediction, feasibility clamp, strategy search, decision-cache
// lookup when opts enable one — exactly as RunInference runs it for layer
// j at device age `age`, but without the learning side effects (no
// disagreement buffering, no policy updates). It exists so the repository
// benchmark (core.decide_live_ns.*, core.decide_cached_ns) and
// BenchmarkControllerLayerDecisionCached measure the real controller
// slice, cached and uncached, rather than a reimplementation that could
// drift.
//
// The returned closure is not safe for concurrent use (it shares the
// controller's scratch buffers).
func DecisionBench(sys System, wl *Workload, pol *policy.Policy, opts ControllerOptions, j int, age float64) (func(), error) {
	ctrl, err := NewController(sys, wl, pol, opts)
	if err != nil {
		return nil, err
	}
	amp := sys.Acc.Amplification(age) // once per run, as RunInference does
	return func() { _ = ctrl.decideLayer(j, age, amp) }, nil
}
