package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
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
	// TrainSeed makes online updates deterministic.
	TrainSeed uint64

	// ProgrammedAt back-dates the device's initial programming instant
	// (simulation seconds; typically negative — "this chip was last
	// written |ProgrammedAt| seconds before the trace starts"). Fleets use
	// it to stagger drift phases across chips the way real deployments
	// are staggered by their programming history; 0 (the default) keeps
	// the fresh-at-zero device of the paper's single-chip experiments.
	ProgrammedAt float64

	// ConfidenceThreshold, when above 0, turns on an extension beyond the
	// paper's Algorithm 1: when the policy's decision confidence (product
	// of its heads' max softmax probabilities) falls below it, the
	// controller runs the exhaustive search for that layer instead of the
	// configured strategy. The idea follows the uncertainty-aware online
	// learning line the paper builds on: spend comparator budget exactly
	// where the learnt model is unsure.
	ConfidenceThreshold float64

	// ProactiveFactor, when above 1, turns on an extension beyond the
	// paper's Algorithm 1: instead of reprogramming only when *no* OU size
	// satisfies η, the controller also reprograms when the
	// drift-constrained configuration's inference latency has degraded
	// past ProactiveFactor× the fresh-device latency. Drift pushes Odin
	// toward fine OUs, which trade latency for energy; for latency-SLA
	// deployments a write pass restores throughput. (An EDP-based trigger
	// would never fire: constrained fine OUs *lower* per-run EDP under
	// this platform's cost model.)
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
	// or the search won each layer. An audited controller attaches no
	// decision cache, so every record comes from the live search.
	// Disabled (nil) auditing costs one pointer test per run.
	Audit *obs.AuditLog

	// DisableDecisionCache is the one decision-cache switch: false (the
	// default) memoizes the per-layer line-6 decisions, true searches live
	// on every decision (`odinsim -cache off`, for byte-for-byte cached vs
	// uncached comparisons). Cached decisions are byte-identical to live
	// searches — see internal/decache for the argument and DESIGN.md §13
	// for the invalidation contract.
	DisableDecisionCache bool
	// Cache names the decision cache a caching controller memoizes into;
	// the serving layer shares one across a fleet of same-platform chips.
	// nil gives the controller a private one.
	Cache *decache.Cache
}

// Caches reports whether a controller built with o memoizes its line-6
// decisions: the switch is on and no audit log asks for live searches.
func (o ControllerOptions) Caches() bool { return !o.DisableDecisionCache && o.Audit == nil }

// UpdateEpochs is the supervised-learning epoch count of one online policy
// update (paper: 100).
const UpdateEpochs = 100

// DefaultControllerOptions returns the paper's settings.
func DefaultControllerOptions() ControllerOptions {
	return ControllerOptions{
		BufferSize: 50,
		TrainSeed:  1,
	}
}

func (o ControllerOptions) withDefaults() ControllerOptions {
	if o.BufferSize <= 0 {
		o.BufferSize = 50
	}
	if o.TrainSeed == 0 {
		o.TrainSeed = 1
	}
	if o.Strategy == "" {
		o.Strategy = "rb"
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
	// exhaustive-escalation context (non-nil only with a ConfidenceThreshold).
	cache  *decache.Cache
	dctx   *decache.Context
	dctxEX *decache.Context

	// scratch lends the line-6 searches reusable buffers and ws lends
	// line 5's prediction its buffers (one each per controller:
	// RunInference is serialised by `running`). cands collects the
	// candidates an audited decision's search scores.
	scratch *search.Scratch
	ws      *policy.Workspace
	cands   []obs.Candidate

	// outs holds the current run's per-layer decisions, from which its
	// trace spans and audit record are built; nil for a controller with
	// neither a Tracer nor an Audit.
	outs []layerOutcome

	// weights is the sensitivity table w_j = sys.Acc.Sens.Weight(j, L),
	// built once from the controller's own System: every η test, age
	// bucket and accuracy estimate reads it instead of paying one exp.
	weights []float64

	programmedAt float64 // simulation time of the last (re)programming
	reprograms   int
	updates      int
	lastSizes    []ou.Size

	// forcedDeadline is ForcedReprogramAge, computed at construction.
	forcedDeadline float64

	// freshLatency is the fresh-device (t₀) constrained-optimal inference
	// latency, the proactive-reprogram reference; computed at construction
	// when ProactiveFactor > 1.
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
		weights:      sys.Acc.Sens.Weights(wl.Layers()),
		programmedAt: resolved.ProgrammedAt,
	}
	if resolved.Tracer.Enabled() || resolved.Audit.Enabled() {
		c.outs = make([]layerOutcome, wl.Layers())
	}
	smallest := sys.Grid().SizeAt(0, 0)
	c.forcedDeadline = math.Inf(1)
	for j, total := 0, wl.Layers(); j < total; j++ {
		if d := sys.Acc.ReprogramDeadline(j, total, smallest); d < c.forcedDeadline {
			c.forcedDeadline = d
		}
	}
	if resolved.ProactiveFactor > 1 {
		_, c.freshLatency = sys.inferenceCost(wl, sys.OptimalSizes(wl, sys.Device.T0))
	}
	if resolved.Caches() {
		c.cache = resolved.Cache
		if c.cache == nil {
			c.cache = decache.New()
		}
		cost := sys.Arch.CostModel()
		c.dctx = c.cache.Context(sys.Grid(), cost, sys.Acc, optim.Name(), resolved.SearchBudget)
		if resolved.ConfidenceThreshold > 0 && optim.Name() != (opt.Exhaustive{}).Name() {
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

// Workload returns the prepared workload the controller runs. The
// controller only reads it, so controllers of one model may share it.
func (c *Controller) Workload() *Workload { return c.wl }

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
// NewController computes it once.
func (c *Controller) ForcedReprogramAge() float64 { return c.forcedDeadline }

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
	// A(age) is the same for every layer of the run: one pow per run.
	amp := c.sys.Acc.Amplification(age)
	rep := RunReport{Time: t, Age: age, Sizes: make([]ou.Size, c.wl.Layers())}
	needReprogram := false

	// A run mixes at most the configured strategy, a confidence
	// escalation to "ex" and "degraded", so the distinct names fit a stack
	// array and a one-strategy run's Strategies allocates nothing.
	var stratBuf [3]string
	strats := stratBuf[:0]

	for j := 0; j < c.wl.Layers(); j++ {
		out := c.decideLayer(j, age, amp)
		if c.outs != nil {
			c.outs[j] = out
		}
		rep.Sizes[j] = out.chosen
		if !slices.Contains(strats, out.strategy) {
			strats = append(strats, out.strategy)
		}

		// Lines 7–8 precondition: when no OU size can meet η, the layer
		// runs degraded at the smallest OU and the device is reprogrammed
		// before the next run.
		if out.degraded {
			needReprogram = true
			continue
		}

		rep.SearchEvaluations += out.evaluations
		if out.predicted != out.chosen { // lines 9–10
			rep.Disagreements++
			if c.buf.Add(policy.Example{F: c.wl.FeaturesAt(j, age), Target: out.chosen}) {
				c.updatePolicy() // line 11
				rep.PolicyUpdated = true
			}
		}
	}

	rep.Strategies = strings.Join(strats, ",")
	rep.Energy, rep.Latency = c.sys.inferenceCost(c.wl, rep.Sizes)
	rep.Accuracy = c.sys.Acc.AccuracyWith(c.wl.Model.IdealAccuracy, c.weights, amp, rep.Sizes)
	c.lastSizes = rep.Sizes

	if c.opts.ProactiveFactor > 1 && !needReprogram && rep.Latency > c.opts.ProactiveFactor*c.freshLatency {
		needReprogram = true
	}

	if needReprogram {
		rep.Reprogrammed = true
		rep.ReprogramPasses = 1
		rep.ReprogramEnergy, rep.ReprogramLatency = c.sys.reprogramCost(c.wl)
		c.programmedAt = t
		c.reprograms++
	}
	// Observability is strictly opt-in: with both sinks nil the per-run
	// cost is a nil test per layer, the two pointer tests here and the nil
	// Probe check inside the search.
	if c.opts.Tracer.Enabled() {
		c.recordRunSpans(rep)
	}
	if c.opts.Audit.Enabled() {
		c.recordAudit(rep)
	}
	return rep
}

// recordAudit adds one run's audit record, built from c.outs. A degraded
// layer records the chosen size as its start, no evaluations and no
// policy win.
func (c *Controller) recordAudit(rep RunReport) {
	audit := obs.RunAudit{Time: rep.Time, Age: rep.Age, Reprogrammed: rep.Reprogrammed,
		Layers: make([]obs.LayerDecision, len(c.outs))}
	for j, out := range c.outs {
		audit.Layers[j] = obs.LayerDecision{Layer: j, Predicted: out.predicted, Start: out.start,
			Chosen: out.chosen, Strategy: out.strategy, Evaluations: out.evaluations,
			PolicyWon:  !out.degraded && out.predicted == out.chosen,
			Candidates: out.candidates, Front: out.front}
		if out.degraded {
			audit.Layers[j].Start = out.chosen
		}
	}
	c.opts.Audit.Add(audit)
}

// layerOutcome is one per-layer line-6 decision plus the metadata needed
// to fill the run report, audit record and trace spans.
type layerOutcome struct {
	predicted ou.Size
	// start is the clamped search seed, which only audit records read; a
	// cache hit and a degraded layer leave it zero.
	start    ou.Size
	chosen   ou.Size
	strategy string

	evaluations int
	degraded    bool

	// candidates and front are set for audited decisions only: every
	// candidate the search scored, in search order, and the non-dominated
	// sizes of a multi-objective strategy.
	candidates []obs.Candidate
	front      []ou.Size
}

// decideLayer runs Algorithm 1 lines 5–6 for layer j at device age `age`,
// whose drift amplification amp = Acc.Amplification(age) the caller
// resolves once per run: policy prediction, feasibility clamp, and the
// line-6 strategy search, the last two memoized through the decision
// cache when one is attached. A miss and an uncached controller run the
// one search below. It touches no learning state — RunInference owns the
// disagreement buffer — so benchmarks replay it in isolation
// (DecisionBench).
func (c *Controller) decideLayer(j int, age, amp float64) layerOutcome {
	feat := c.wl.FeaturesAt(j, age)
	predicted := c.pol.PredictWith(c.ws, feat) // line 5
	grid := c.sys.Grid()
	smallest := grid.SizeAt(0, 0)
	w := c.weights[j]

	// Resolve the effective strategy first: a confidence escalation
	// switches the decision context, so it must precede the cache lookup.
	// Low policy confidence escalates any non-exhaustive strategy to the
	// full grid scan; the strategy string always comes from the optimizer
	// that actually ran, so attribution stays exact.
	optim, dctx := c.optim, c.dctx
	if c.opts.ConfidenceThreshold > 0 && optim.Name() != (opt.Exhaustive{}).Name() &&
		c.pol.Confidence(feat) < c.opts.ConfidenceThreshold {
		optim = opt.Exhaustive{}
		dctx = c.dctxEX
	}

	// Lines 7–8 precondition: when no OU size meets η, the layer runs
	// degraded at the smallest size. NF is monotone in R+C, so the
	// smallest size decides (accuracy.Model.AnySatisfiable with w and A
	// resolved); a cached controller's Bucket is then at least 1.
	if !c.sys.Acc.SatisfiesWith(w, amp, smallest) {
		return layerOutcome{predicted: predicted, chosen: smallest,
			strategy: opt.StrategyDegraded, degraded: true}
	}
	var key decache.Key
	if c.cache != nil {
		key = decache.Key{Work: c.wl.Works[j], Layer: j, Of: c.wl.Layers(),
			Predicted: predicted, Bucket: dctx.Bucket(w, amp)}
		if e, ok := dctx.Lookup(key); ok {
			return layerOutcome{predicted: predicted, chosen: e.Chosen,
				strategy: optim.Name(), evaluations: e.Evaluations}
		}
	}

	// Line 6: shrink the prediction into the feasible region if drift has
	// outrun the policy, then refine with the configured strategy.
	obj := c.sys.objective(c.wl, j, w, amp)
	obj.Scratch = c.scratch
	audited := c.opts.Audit.Enabled()
	if audited {
		// Score every probed candidate in full; the extra comparator work
		// is billed to auditing, not the modelled hardware.
		c.cands = nil
		score := obj
		obj.Probe = func(s ou.Size, feasible bool, edp float64) {
			cost := score.Cost.Evaluate(score.Work, s)
			c.cands = append(c.cands, obs.Candidate{Size: s, Energy: cost.Energy,
				Latency: cost.Latency, EDP: edp, NF: score.NF(s), Feasible: feasible})
		}
	}
	start := search.ClampFeasible(grid, obj, predicted)
	res := optim.Optimize(grid, obj, start, c.opts.SearchBudget)
	if !res.Found {
		// The bounded walk can miss a feasible region the clamp already
		// located; fall back to the clamped start.
		res.Best = start
	}
	if c.cache != nil {
		dctx.Store(key, decache.Entry{Chosen: res.Best, Evaluations: res.Evaluations})
	}
	out := layerOutcome{predicted: predicted, start: start, chosen: res.Best,
		strategy: optim.Name(), evaluations: res.Evaluations}
	if audited {
		out.candidates = c.cands
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
func (c *Controller) recordRunSpans(rep RunReport) {
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
			obs.String("strategy", c.outs[j].strategy),
			obs.Int("evals", c.outs[j].evaluations),
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
		Epochs: UpdateEpochs,
		Seed:   c.opts.TrainSeed,
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
