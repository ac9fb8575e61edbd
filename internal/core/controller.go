package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"odin/internal/decache"
	"odin/internal/mlp"
	"odin/internal/obs"
	"odin/internal/opt"
	"odin/internal/ou"
	"odin/internal/policy"
	"odin/internal/search"
)

// ControllerOptions tune the Odin online-learning loop.
type ControllerOptions struct {
	// Strategy names the registered internal/opt optimizer driving line 6
	// of Algorithm 1: "rb", "ex", "bo" or "pareto" (opt.Names()). Empty
	// selects the paper's online "rb"; "ex" is §V.B's higher-quality, ~3×
	// costlier alternative. The name is stamped verbatim into
	// decision-audit records and trace spans, so new strategies attribute
	// correctly without controller changes.
	Strategy string
	// SearchBudget is the strategy-specific effort knob handed to the
	// optimizer (rb: ±1 steps K; bo: max candidate evaluations; ex/pareto:
	// ignored). <= 0 uses the optimizer's own default (rb: the paper's
	// K = 3).
	SearchBudget int
	// BufferSize is the training-buffer capacity (paper: 50 examples).
	BufferSize int
	// UpdateEpochs is the supervised-learning epoch count per policy update
	// (paper: 100).
	UpdateEpochs int
	// LearningRate for policy updates; 0 uses the mlp default.
	LearningRate float64
	// TrainSeed makes online updates deterministic.
	TrainSeed uint64

	// ProgrammedAt back-dates the device's initial programming instant
	// (simulation seconds; typically negative — "this chip was last
	// written |ProgrammedAt| seconds before the trace starts"). Fleets use
	// it to stagger drift phases across chips the way real deployments
	// are staggered by their programming history; 0 (the default) keeps
	// the fresh-at-zero device of the paper's single-chip experiments.
	ProgrammedAt float64

	// ConfidenceEX is an extension beyond the paper's Algorithm 1: when the
	// policy's decision confidence (product of its heads' max softmax
	// probabilities) falls below ConfidenceThreshold, the controller runs
	// the exhaustive search for that layer instead of the K-step local
	// walk. The idea follows the uncertainty-aware online learning line
	// the paper builds on: spend comparator budget exactly where the
	// learnt model is unsure.
	ConfidenceEX bool
	// ConfidenceThreshold gates ConfidenceEX (default 0.5 when enabled).
	ConfidenceThreshold float64

	// ProactiveReprogram is an extension beyond the paper's Algorithm 1:
	// instead of reprogramming only when *no* OU size satisfies η, the
	// controller also reprograms when the drift-constrained configuration's
	// inference latency has degraded past ProactiveFactor× the fresh-device
	// latency. Drift pushes Odin toward fine OUs, which trade latency for
	// energy; for latency-SLA deployments a write pass restores throughput.
	// (An EDP-based trigger would never fire: constrained fine OUs *lower*
	// per-run EDP under this platform's cost model.)
	ProactiveReprogram bool
	// ProactiveFactor is the latency degradation ratio that triggers a
	// proactive pass (default 1.5 when ProactiveReprogram is set).
	ProactiveFactor float64

	// Tracer, when non-nil, records observability spans for every run on
	// simulation-time intervals: one "run" span covering the inference
	// latency, child "layer" spans tiling it (each layer's Eq. 1 share,
	// annotated with the chosen OU size, energy, cycles, search strategy
	// and comparator budget), a "noc" span for the activation-movement
	// tail, and a "reprogram" span when the run schedules a write pass.
	// Disabled (nil) tracing costs one pointer test per run.
	Tracer *obs.Tracer
	// TraceTrack is the tracer lane runs are recorded on (the serving
	// layer uses one lane per chip).
	TraceTrack int
	// Audit, when non-nil, receives one obs.RunAudit per run: every
	// candidate OU size the line-6 search scored (energy/latency/EDP/
	// non-ideality), the budget spent, and whether the policy prediction
	// or the search won each layer. Disabled (nil) auditing costs one
	// pointer test per run.
	Audit *obs.AuditLog

	// Cache, when non-nil, memoizes the per-layer line-6 decisions in the
	// given decision cache; the serving layer shares one cache across a
	// fleet of same-platform chips. When nil and the process-wide default
	// is on (SetDecisionCacheDefault, the initial state), the controller
	// creates a private cache. Cached decisions are byte-identical to live
	// searches — see internal/decache for the argument and DESIGN.md §13
	// for the invalidation contract.
	Cache *decache.Cache
	// DisableDecisionCache opts this controller out of decision caching
	// regardless of Cache and the process-wide default (`odinsim
	// -cache=off` uses the global switch instead, so experiment drivers
	// need no plumbing).
	DisableDecisionCache bool
}

// decisionCacheOff is the process-wide decision-cache default: zero value
// (false) means controllers without an explicit Cache memoize into a
// private one. `odinsim -cache=off` flips it to compare cached and
// uncached artefacts byte for byte.
var decisionCacheOff atomic.Bool

// SetDecisionCacheDefault turns the process-wide decision-cache default on
// or off. Controllers constructed with an explicit ControllerOptions.Cache
// are unaffected; DisableDecisionCache still wins per controller.
func SetDecisionCacheDefault(enabled bool) { decisionCacheOff.Store(!enabled) }

// DecisionCacheDefault reports the process-wide decision-cache default.
func DecisionCacheDefault() bool { return !decisionCacheOff.Load() }

// DefaultControllerOptions returns the paper's settings.
func DefaultControllerOptions() ControllerOptions {
	return ControllerOptions{
		BufferSize:   50,
		UpdateEpochs: 100,
		TrainSeed:    1,
	}
}

func (o ControllerOptions) withDefaults() ControllerOptions {
	if o.BufferSize <= 0 {
		o.BufferSize = 50
	}
	if o.UpdateEpochs <= 0 {
		o.UpdateEpochs = 100
	}
	if o.TrainSeed == 0 {
		o.TrainSeed = 1
	}
	if o.Strategy == "" {
		o.Strategy = "rb"
	}
	if o.ProactiveReprogram && o.ProactiveFactor <= 1 {
		o.ProactiveFactor = 1.5
	}
	if o.ConfidenceEX && o.ConfidenceThreshold <= 0 {
		o.ConfidenceThreshold = 0.5
	}
	return o
}

// Controller runs Algorithm 1 for one workload: per run and per layer it
// predicts an OU size with the policy, searches for the constrained EDP
// optimum, accumulates disagreements as training data, updates the policy
// when the buffer fills, and reprograms the device when no OU size
// satisfies the non-ideality threshold.
type Controller struct {
	sys  System
	wl   *Workload
	pol  *policy.Policy
	buf  *policy.Buffer
	opts ControllerOptions

	// optim is the line-6 strategy resolved from opts.Strategy at
	// construction; its Name() is the single source of the strategy
	// strings in audit records and trace spans.
	optim opt.Optimizer

	// cache memoizes line-6 decisions; nil disables caching. dctx is the
	// interned decision context of the configured strategy, dctxEX the
	// exhaustive-escalation context (non-nil only with ConfidenceEX).
	cache  *decache.Cache
	dctx   *decache.Context
	dctxEX *decache.Context

	// scratch lends the line-6 searches reusable buffers and ws lends
	// line 5's prediction its buffers (one each per controller:
	// RunInference is serialised by `running`). probeBuf and recordProbe
	// capture candidate evaluations for cache entries and audit records
	// without a fresh closure per layer.
	scratch     *search.Scratch
	ws          *policy.Workspace
	probeBuf    []decache.Probe
	recordProbe func(s ou.Size, feasible bool, edp float64)

	programmedAt float64 // simulation time of the last (re)programming
	reprograms   int
	updates      int
	lastSizes    []ou.Size

	// forcedDeadline caches ForcedReprogramAge (0 = not yet computed; the
	// real value is >= T0 > 0).
	forcedDeadline float64

	// freshLatency caches the fresh-device (t₀) constrained-optimal
	// inference latency, the proactive-reprogram reference. Computed lazily.
	freshLatency float64

	// running guards against concurrent RunInference calls. A Controller
	// models one physical chip: its policy, buffer, and drift bookkeeping
	// mutate on every run, so each chip must be driven by one goroutine at
	// a time (the serving layer serialises batches per chip). Concurrent
	// use is a programming error surfaced eagerly rather than as silent
	// state corruption.
	running atomic.Bool
}

// NewController creates an Odin controller. The policy is adapted in place
// (pass a Clone of the offline policy to keep the original).
func NewController(sys System, wl *Workload, pol *policy.Policy, opts ControllerOptions) (*Controller, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if wl == nil || pol == nil {
		return nil, fmt.Errorf("core: controller needs a workload and a policy")
	}
	if pol.Grid() != sys.Grid() {
		return nil, fmt.Errorf("core: policy grid %+v does not match system grid %+v",
			pol.Grid(), sys.Grid())
	}
	resolved := opts.withDefaults()
	optim, err := opt.ByName(resolved.Strategy)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c := &Controller{
		sys:          sys,
		wl:           wl,
		pol:          pol,
		buf:          policy.NewBuffer(resolved.BufferSize),
		opts:         resolved,
		optim:        optim,
		scratch:      search.NewScratch(),
		ws:           pol.NewWorkspace(),
		programmedAt: resolved.ProgrammedAt,
	}
	c.recordProbe = func(s ou.Size, feasible bool, edp float64) {
		c.probeBuf = append(c.probeBuf, decache.Probe{Size: s, Feasible: feasible, EDP: edp})
	}
	if !resolved.DisableDecisionCache && (resolved.Cache != nil || DecisionCacheDefault()) {
		c.cache = resolved.Cache
		if c.cache == nil {
			c.cache = decache.New()
		}
		cost := sys.Arch.CostModel()
		c.dctx = c.cache.Context(sys.Grid(), cost, sys.Acc, optim.Name(), resolved.SearchBudget)
		if resolved.ConfidenceEX && optim.Name() != (opt.Exhaustive{}).Name() {
			c.dctxEX = c.cache.Context(sys.Grid(), cost, sys.Acc,
				(opt.Exhaustive{}).Name(), resolved.SearchBudget)
		}
	}
	return c, nil
}

// DecisionCache returns the cache memoizing this controller's line-6
// decisions (nil when caching is disabled).
func (c *Controller) DecisionCache() *decache.Cache { return c.cache }

// Strategy returns the name of the line-6 optimizer the controller runs.
func (c *Controller) Strategy() string { return c.optim.Name() }

// Policy returns the (adapting) policy.
func (c *Controller) Policy() *policy.Policy { return c.pol }

// Reprograms returns the reprogramming count so far.
func (c *Controller) Reprograms() int { return c.reprograms }

// PolicyUpdates returns how many buffer-full updates have run.
func (c *Controller) PolicyUpdates() int { return c.updates }

// Age returns the device age at simulation time t.
func (c *Controller) Age(t float64) float64 {
	age := t - c.programmedAt + c.sys.Device.T0
	if age < c.sys.Device.T0 {
		age = c.sys.Device.T0
	}
	return age
}

// ForcedReprogramAge returns the device age at which Algorithm 1's lines
// 7-8 force a reprogram: the earliest age at which some layer's η
// constraint cannot be met by any OU size. NF is monotone in R+C, so the
// smallest grid size decides satisfiability per layer, and the fleet
// deadline is the minimum over layers. +Inf when no layer ever violates
// (ν = 0). The value depends only on the platform and workload shape, so
// it is computed once and cached.
func (c *Controller) ForcedReprogramAge() float64 {
	if c.forcedDeadline == 0 {
		smallest := c.sys.Grid().SizeAt(0, 0)
		total := c.wl.Layers()
		deadline := math.Inf(1)
		for j := 0; j < total; j++ {
			if d := c.sys.Acc.ReprogramDeadline(j, total, smallest); d < deadline {
				deadline = d
			}
		}
		c.forcedDeadline = deadline
	}
	return c.forcedDeadline
}

// Reprogram performs a maintenance write pass at simulation time t without
// running an inference: the device is rewritten, drift age resets, and the
// full reprogram cost is returned so the caller can book the energy and
// occupy the chip for the write latency. The serving layer uses this to
// reprogram *off* the latency path — on an idle chip the router has
// steered arrivals away from — instead of waiting for lines 7-8 to force
// the stall onto a live batch. Calls must not overlap RunInference.
func (c *Controller) Reprogram(t float64) (energy, latency float64) {
	if !c.running.CompareAndSwap(false, true) {
		panic("core: concurrent Reprogram on one Controller; a chip must be driven by one goroutine at a time")
	}
	defer c.running.Store(false)
	energy, latency = c.sys.reprogramCost(c.wl)
	c.programmedAt = t
	c.reprograms++
	if c.opts.Tracer.Enabled() {
		c.opts.Tracer.At("reprogram", c.opts.TraceTrack, t, t+latency, nil,
			obs.Int("passes", 1),
			obs.Float("energy", energy),
			obs.String("cause", "maintenance"))
	}
	return energy, latency
}

// RunInference executes Algorithm 1's per-run body at simulation time t.
// A Controller is single-chip state: calls must not overlap (see running).
func (c *Controller) RunInference(t float64) RunReport {
	if !c.running.CompareAndSwap(false, true) {
		panic("core: concurrent RunInference on one Controller; a chip must be driven by one goroutine at a time")
	}
	defer c.running.Store(false)
	age := c.Age(t)
	rep := RunReport{Time: t, Age: age, Sizes: make([]ou.Size, c.wl.Layers())}
	needReprogram := false

	// Observability is strictly opt-in: with both sinks nil the per-run
	// cost is two pointer tests plus the nil Probe check inside the search.
	var audit *obs.RunAudit
	if c.opts.Audit.Enabled() {
		audit = &obs.RunAudit{Time: t, Age: age,
			Layers: make([]obs.LayerDecision, 0, c.wl.Layers())}
	}
	traced := c.opts.Tracer.Enabled()
	var stratByLayer []string
	var evalsByLayer []int
	if traced {
		stratByLayer = make([]string, c.wl.Layers())
		evalsByLayer = make([]int, c.wl.Layers())
	}

	for j := 0; j < c.wl.Layers(); j++ {
		out := c.decideLayer(j, age, audit != nil)
		rep.Sizes[j] = out.chosen

		// Lines 7–8 precondition: when no OU size can meet η, the layer
		// runs degraded at the smallest OU and the device is reprogrammed
		// before the next run.
		if out.degraded {
			needReprogram = true
			if audit != nil {
				audit.Layers = append(audit.Layers, obs.LayerDecision{
					Layer: j, Predicted: out.predicted, Start: out.chosen,
					Chosen: out.chosen, Strategy: out.strategy,
				})
			}
			if traced {
				stratByLayer[j] = out.strategy
			}
			continue
		}

		rep.SearchEvaluations += out.evaluations
		if audit != nil {
			var cands []obs.Candidate
			if len(out.probes) > 0 {
				// Rebuild the full score breakdown per recorded candidate at
				// the current age. Every component is a pure function of
				// (size, age), so replayed (cached) and live decisions audit
				// byte-identically; the extra comparator work is billed to
				// auditing, not the modelled hardware.
				score := c.sys.objective(c.wl, j, age)
				cands = make([]obs.Candidate, 0, len(out.probes))
				for _, p := range out.probes {
					cost := score.Cost.Evaluate(score.Work, p.Size)
					cands = append(cands, obs.Candidate{
						Size: p.Size, Energy: cost.Energy, Latency: cost.Latency,
						EDP: p.EDP, NF: score.NF(p.Size), Feasible: p.Feasible,
					})
				}
			}
			audit.Layers = append(audit.Layers, obs.LayerDecision{
				Layer: j, Predicted: out.predicted, Start: out.start,
				Chosen: out.chosen, Strategy: out.strategy,
				Evaluations: out.evaluations,
				PolicyWon:   out.predicted == out.chosen, Cached: out.cached,
				Candidates: cands, Front: out.front,
			})
		}
		if traced {
			stratByLayer[j], evalsByLayer[j] = out.strategy, out.evaluations
		}

		if out.predicted != out.chosen { // lines 9–10
			rep.Disagreements++
			if c.buf.Add(policy.Example{F: c.wl.FeaturesAt(j, age), Target: out.chosen}) {
				c.updatePolicy() // line 11
				rep.PolicyUpdated = true
			}
		}
	}

	rep.Energy, rep.Latency = c.sys.inferenceCost(c.wl, rep.Sizes)
	rep.Accuracy = c.sys.Acc.Accuracy(c.wl.Model.IdealAccuracy, rep.Sizes, age)
	c.lastSizes = rep.Sizes

	if c.opts.ProactiveReprogram && !needReprogram {
		if c.freshLatency == 0 {
			c.freshLatency = c.freshDeviceLatency()
		}
		if rep.Latency > c.opts.ProactiveFactor*c.freshLatency {
			needReprogram = true
		}
	}

	if needReprogram {
		rep.Reprogrammed = true
		rep.ReprogramPasses = 1
		rep.ReprogramEnergy, rep.ReprogramLatency = c.sys.reprogramCost(c.wl)
		c.programmedAt = t
		c.reprograms++
	}
	if traced {
		c.recordRunSpans(rep, stratByLayer, evalsByLayer)
	}
	if audit != nil {
		audit.Reprogrammed = rep.Reprogrammed
		c.opts.Audit.Add(*audit)
	}
	return rep
}

// layerOutcome is one per-layer line-6 decision plus the metadata needed
// to fill the run report, audit record and trace spans identically whether
// the decision was computed live or replayed from the cache.
type layerOutcome struct {
	predicted ou.Size
	start     ou.Size
	chosen    ou.Size
	strategy  string

	evaluations int
	cached      bool
	degraded    bool

	// probes lists the candidate evaluations in search order. Populated
	// whenever the controller caches decisions or wantProbes was set; may
	// alias controller scratch, so consume before the next decision.
	probes []decache.Probe
	// front lists the non-dominated sizes of a multi-objective strategy.
	front []ou.Size
}

// decideLayer runs (or replays) Algorithm 1 lines 5–6 for layer j at
// device age `age`: policy prediction, feasibility clamp, and the line-6
// strategy search, the last two memoized through the decision cache when
// one is attached. It touches no learning state — RunInference owns the
// disagreement buffer — so benchmarks replay it in isolation
// (DecisionBench). wantProbes forces candidate recording even when caching
// is off (the audit path).
func (c *Controller) decideLayer(j int, age float64, wantProbes bool) layerOutcome {
	feat := c.wl.FeaturesAt(j, age)
	predicted := c.pol.PredictWith(c.ws, feat) // line 5
	grid := c.sys.Grid()
	total := c.wl.Layers()

	// Resolve the effective strategy first: a ConfidenceEX escalation
	// switches the decision context, so it must precede the cache lookup.
	// Low policy confidence escalates any non-exhaustive strategy to the
	// full grid scan; the strategy string always comes from the optimizer
	// that actually ran, so attribution stays exact.
	optim, dctx := c.optim, c.dctx
	if c.opts.ConfidenceEX && optim.Name() != (opt.Exhaustive{}).Name() &&
		c.pol.Confidence(feat) < c.opts.ConfidenceThreshold {
		optim = opt.Exhaustive{}
		dctx = c.dctxEX
	}

	if c.cache != nil {
		// Degenerate case via the bucket: Bucket == 0 is bit-identical to
		// !AnySatisfiable (the same predicate on the smallest grid size).
		bucket := dctx.Bucket(j, total, age)
		if bucket == 0 {
			smallest := grid.SizeAt(0, 0)
			return layerOutcome{predicted: predicted, start: smallest,
				chosen: smallest, strategy: opt.StrategyDegraded, degraded: true}
		}
		key := decache.Key{Work: c.wl.Works[j], Layer: j, Of: total,
			Predicted: predicted, Bucket: bucket}
		if e, ok := dctx.Lookup(key); ok {
			return layerOutcome{predicted: predicted, start: e.Start,
				chosen: e.Chosen, strategy: optim.Name(),
				evaluations: e.Evaluations, cached: true,
				probes: e.Probes, front: e.Front}
		}
		// Miss: run the live pass, recording every probe so later hits can
		// replay the audit breakdown.
		obj := c.sys.objective(c.wl, j, age)
		obj.Scratch = c.scratch
		c.probeBuf = c.probeBuf[:0]
		obj.Probe = c.recordProbe
		start := search.ClampFeasible(grid, obj, predicted)
		res := optim.Optimize(grid, obj, start, c.opts.SearchBudget)
		found := res.Found
		if !found {
			// The bounded walk can miss a feasible region the clamp already
			// located; fall back to the clamped start.
			res.Best = start
		}
		e := &decache.Entry{Start: start, Chosen: res.Best, BestEDP: res.BestEDP,
			Found: found, Evaluations: res.Evaluations,
			Probes: append([]decache.Probe(nil), c.probeBuf...)}
		if len(res.Front) > 0 {
			e.Front = make([]ou.Size, len(res.Front))
			for i, p := range res.Front {
				e.Front[i] = p.Size
			}
		}
		dctx.Store(key, e)
		return layerOutcome{predicted: predicted, start: start, chosen: res.Best,
			strategy: optim.Name(), evaluations: res.Evaluations,
			probes: e.Probes, front: e.Front}
	}

	// Uncached path: the pre-cache control flow, bit for bit. NF is
	// monotone in R+C, so checking the smallest grid size decides global
	// satisfiability (lines 7–8 precondition).
	if !c.sys.Acc.AnySatisfiable(j, total, grid, age) {
		smallest := grid.SizeAt(0, 0)
		return layerOutcome{predicted: predicted, start: smallest,
			chosen: smallest, strategy: opt.StrategyDegraded, degraded: true}
	}
	// Line 6: shrink the prediction into the feasible region if drift has
	// outrun the policy, then refine with the configured strategy.
	obj := c.sys.objective(c.wl, j, age)
	obj.Scratch = c.scratch
	if wantProbes {
		c.probeBuf = c.probeBuf[:0]
		obj.Probe = c.recordProbe
	}
	start := search.ClampFeasible(grid, obj, predicted)
	res := optim.Optimize(grid, obj, start, c.opts.SearchBudget)
	if !res.Found {
		// The bounded walk can miss a feasible region the clamp already
		// located; fall back to the clamped start.
		res.Best = start
	}
	out := layerOutcome{predicted: predicted, start: start, chosen: res.Best,
		strategy: optim.Name(), evaluations: res.Evaluations}
	if wantProbes {
		out.probes = c.probeBuf
		if len(res.Front) > 0 {
			out.front = make([]ou.Size, len(res.Front))
			for i, p := range res.Front {
				out.front[i] = p.Size
			}
		}
	}
	return out
}

// recordRunSpans writes one run's span tree on simulation-time intervals:
// the run span covers the inference latency; layer spans tile it in
// execution order (each layer's Eq. 1 latency share), the NoC span carries
// the activation-movement tail, and a reprogram span follows the run when
// it scheduled a write pass. Span content is a pure function of the run
// report, so serve-layer replays export byte-identical traces regardless
// of worker count.
func (c *Controller) recordRunSpans(rep RunReport, strat []string, evals []int) {
	tr, track := c.opts.Tracer, c.opts.TraceTrack
	run := tr.At("run", track, rep.Time, rep.Time+rep.Latency, nil,
		obs.String("model", c.wl.Model.Name),
		obs.Float("age", rep.Age),
		obs.Int("evals", rep.SearchEvaluations),
		obs.Float("energy", rep.Energy),
		obs.Float("accuracy", rep.Accuracy))
	cm := c.sys.Arch.CostModel()
	cursor := rep.Time
	for j, s := range rep.Sizes {
		cost := cm.Evaluate(c.wl.Works[j], s)
		end := cursor + cost.Latency
		tr.At("layer", track, cursor, end, run,
			obs.Int("layer", j),
			obs.String("ou", s.String()),
			obs.String("strategy", strat[j]),
			obs.Int("evals", evals[j]),
			obs.Float("energy", cost.Energy),
			obs.Int("cycles", cost.Cycles))
		cursor = end
	}
	tr.At("noc", track, cursor, cursor+c.wl.NoCLatency, run,
		obs.Float("energy", c.wl.NoCEnergy))
	if rep.Reprogrammed {
		tr.At("reprogram", track, rep.Time+rep.Latency,
			rep.Time+rep.Latency+rep.ReprogramLatency, nil,
			obs.Int("passes", rep.ReprogramPasses),
			obs.Float("energy", rep.ReprogramEnergy))
	}
}

func (c *Controller) updatePolicy() {
	examples := c.buf.Drain()
	_, err := c.pol.Train(examples, mlp.TrainOptions{
		Epochs:       c.opts.UpdateEpochs,
		LearningRate: c.opts.LearningRate,
		Seed:         c.opts.TrainSeed,
	})
	if err != nil {
		// Targets come from the grid-constrained search, so this is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("core: policy update: %v", err))
	}
	c.updates++
}

// LastSizes returns the OU sizes chosen by the most recent run (nil before
// the first run).
func (c *Controller) LastSizes() []ou.Size { return c.lastSizes }

// freshDeviceLatency computes the inference latency of the exhaustive
// per-layer optima on a just-programmed device — the proactive-reprogram
// reference.
func (c *Controller) freshDeviceLatency() float64 {
	grid := c.sys.Grid()
	sizes := make([]ou.Size, c.wl.Layers())
	for j := range sizes {
		res := search.Exhaustive(grid, c.sys.objective(c.wl, j, c.sys.Device.T0))
		if res.Found {
			sizes[j] = res.Best
		} else {
			sizes[j] = grid.SizeAt(0, 0)
		}
	}
	_, l := c.sys.inferenceCost(c.wl, sizes)
	return l
}
