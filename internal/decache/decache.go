// Package decache memoizes the controller's per-layer line-6 decision —
// the predict → clamp → search pass of Algorithm 1 — so repeated decisions
// on the same layer at equivalent drift ages cost a map lookup instead of
// a search.
//
// # Why memoization preserves byte-identity
//
// A line-6 decision is a pure function of the layer workload, the OU grid,
// the cost model, the accuracy model, the search strategy and budget, the
// policy's predicted start size, and the device age t. The age enters the
// decision only through the feasibility predicate
//
//	NF(j,s,t) = (w_j · NF_IR(s)) · A(t) < η
//
// and through NF-order comparisons between candidate sizes. Both collapse
// onto an age-free structure:
//
//   - NF_IR is age-free and EDP is age-free, so the feasible set at age t
//     is the lower level set {s : NF_IR(s) < η/(w_j·A(t))} of the fixed
//     NF_IR ordering. Counting the feasible sizes therefore identifies the
//     set exactly — that count is the "age bucket". Sizes with equal NF_IR
//     (e.g. 4×8 and 8×4) enter or leave feasibility together, so the count
//     is unambiguous.
//   - NF-order comparisons (RB's infeasible descent, the TPE infeasible
//     ranking, the Pareto dominance test) compare (w·NF_IR(s_a))·A against
//     (w·NF_IR(s_b))·A: multiplying both sides by the same positive scalar
//     is weakly monotone under IEEE-754 rounding, so the ordering is
//     age-invariant. (A strict inequality can in principle collapse to a
//     tie when the two products land within one ulp; grid NF_IR values are
//     structurally far apart, and the odincheck byte-identity properties
//     over random ages machine-check the assumption.)
//
// Hence every decision is a pure function of (context, key) where the
// context is (grid, cost model, accuracy model, strategy, budget) and the
// key is (layer workload, layer position, predicted size, age bucket).
// The cached and uncached controllers produce byte-identical artefacts —
// asserted end to end by `make smoke`.
//
// The bucket predicate reuses accuracy.Model.Satisfies' exact expression
// shape ((w·ir)·A < η with ir precomputed per grid size), so bucketing is
// bit-identical to the checks the uncached path performs, including the
// bucket==0 ⇔ !AnySatisfiable degenerate case.
//
// # Invalidation contract
//
//   - Reprogram resets the device age, which moves decisions to the fresh
//     age bucket; pre-reprogram entries become unreachable by key, never
//     stale-served (metamorphic tests in internal/core inject poisoned
//     entries to prove it).
//   - A policy weight update (Train) or hot-swap bumps the policy's
//     (ID, Version) identity, which keys the prediction memo; decision
//     entries are keyed by the predicted size itself, so they stay valid
//     and simply stop being reached when predictions move.
//   - A strategy or budget change lands in a different Context; Contexts
//     never alias across strategies.
//   - Flush drops everything (serving-layer policy rollout hook).
//
// A Cache may be shared across controllers (the serving layer shares one
// per fleet): all methods are safe for concurrent use, and because every
// value is a pure function of its key, races between lookup and store are
// benign — any interleaving yields the same bytes.
package decache

import (
	"sort"
	"sync"
	"sync/atomic"

	"odin/internal/accuracy"
	"odin/internal/ou"
	"odin/internal/policy"
	"odin/internal/telemetry"
)

// Options tune a Cache.
type Options struct {
	// MaxDecisions caps the decision entries per context; exceeding it
	// flushes that context wholesale (deterministically: the flush depends
	// only on insertion count, never on map order). 0 means 4096.
	MaxDecisions int
	// MaxPredictions caps the prediction-memo entries; exceeding it flushes
	// the memo wholesale. 0 means 65536.
	MaxPredictions int
	// Registry, when non-nil, exports the hit/miss/flush counters as
	// odin_decache_* Prometheus series.
	Registry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxDecisions <= 0 {
		o.MaxDecisions = 4096
	}
	if o.MaxPredictions <= 0 {
		o.MaxPredictions = 65536
	}
	return o
}

// Counters is a point-in-time snapshot of cache activity. Counter values
// depend on scheduling when a Cache is shared across goroutines (who
// populates first); they feed observability only and must never be
// rendered into deterministic artefacts.
type Counters struct {
	DecisionHits, DecisionMisses uint64
	PredictHits, PredictMisses   uint64
	Flushes                      uint64
}

// Cache memoizes line-6 decisions and policy predictions.
type Cache struct {
	opts Options

	mu   sync.RWMutex
	ctxs map[ctxKey]*Context
	pred map[predKey]ou.Size

	decHits, decMisses   atomic.Uint64
	predHits, predMisses atomic.Uint64
	flushes              atomic.Uint64

	// Optional telemetry mirrors of the atomic counters.
	tDecHits, tDecMisses   *telemetry.Counter
	tPredHits, tPredMisses *telemetry.Counter
	tFlushes               *telemetry.Counter
}

// New creates a cache with default limits and no telemetry.
func New() *Cache { return NewWith(Options{}) }

// NewWith creates a cache with explicit options.
func NewWith(opts Options) *Cache {
	c := &Cache{
		opts: opts.withDefaults(),
		ctxs: make(map[ctxKey]*Context),
		pred: make(map[predKey]ou.Size),
	}
	if r := opts.Registry; r != nil {
		c.tDecHits = r.Counter("odin_decache_decision_hits_total",
			"line-6 decisions served from the decision cache")
		c.tDecMisses = r.Counter("odin_decache_decision_misses_total",
			"line-6 decisions computed and stored by the decision cache")
		c.tPredHits = r.Counter("odin_decache_predict_hits_total",
			"policy predictions served from the prediction memo")
		c.tPredMisses = r.Counter("odin_decache_predict_misses_total",
			"policy predictions computed and stored by the prediction memo")
		c.tFlushes = r.Counter("odin_decache_flushes_total",
			"wholesale cache flushes (explicit or capacity-triggered)")
	}
	return c
}

// Counters returns a snapshot of cache activity.
func (c *Cache) Counters() Counters {
	return Counters{
		DecisionHits:   c.decHits.Load(),
		DecisionMisses: c.decMisses.Load(),
		PredictHits:    c.predHits.Load(),
		PredictMisses:  c.predMisses.Load(),
		Flushes:        c.flushes.Load(),
	}
}

// Flush drops every decision entry and memoized prediction. Contexts stay
// interned (their precomputed NF_IR tables are immutable).
func (c *Cache) Flush() {
	c.mu.Lock()
	for _, x := range c.ctxs {
		x.mu.Lock()
		x.entries = make(map[Key]*Entry)
		x.mu.Unlock()
	}
	c.pred = make(map[predKey]ou.Size)
	c.mu.Unlock()
	c.countFlush()
}

func (c *Cache) countFlush() {
	c.flushes.Add(1)
	if c.tFlushes != nil {
		c.tFlushes.Inc()
	}
}

// ctxKey identifies a decision context: everything a line-6 decision
// depends on besides the per-layer key. All fields are comparable value
// types, so two controllers with identical platforms share a context.
type ctxKey struct {
	Grid     ou.Grid
	Cost     ou.CostModel
	Acc      accuracy.Model
	Strategy string
	Budget   int
}

// predKey identifies one memoized policy prediction. The policy's
// process-unique ID and weight version make stale reuse impossible: Train
// bumps the version, a hot-swapped or deserialized policy has a fresh ID.
type predKey struct {
	ID, Version uint64
	F           policy.Features
}

// Key addresses one memoized decision within a Context.
type Key struct {
	// Work is the canonical per-crossbar workload of the layer (the
	// feature vector of the decision); its sparsity profile must be a
	// comparable value type, which every in-tree profile is.
	Work ou.LayerWork
	// Layer/Of locate the layer (the sensitivity weight input).
	Layer, Of int
	// Predicted is the policy's line-5 output, the search start seed.
	Predicted ou.Size
	// Bucket is the age bucket: the count of feasible grid sizes at the
	// decision's device age (Context.Bucket).
	Bucket int
}

// Probe is one recorded candidate evaluation, in search order. EDP is NaN
// for infeasible candidates (never scored). Age-dependent scores (energy,
// latency, NF) are deliberately absent: audit replay recomputes them at
// the current age, bit-identical to what the live search would have
// reported.
type Probe struct {
	Size     ou.Size
	Feasible bool
	EDP      float64
}

// Entry is one memoized decision: the clamped start, the final choice
// (after the not-found fallback to the start), and everything needed to
// replay the run report and audit record byte-identically.
type Entry struct {
	Start, Chosen ou.Size
	BestEDP       float64
	Found         bool
	Evaluations   int
	Probes        []Probe
	Front         []ou.Size
}

// Context is the per-(platform, strategy, budget) decision table. It
// precomputes the sorted NF_IR values of the grid so age buckets resolve
// with one exp, one pow and a binary search.
type Context struct {
	cache *Cache
	acc   accuracy.Model
	grid  ou.Grid

	// irs holds NF_IR for every grid size, ascending (duplicates kept):
	// the lower level sets of this ordering are exactly the feasible sets.
	irs []float64

	mu      sync.RWMutex
	entries map[Key]*Entry
	inserts int
}

// Context interns and returns the decision context for one platform +
// strategy + budget combination. Call it once per controller, not per
// decision.
func (c *Cache) Context(g ou.Grid, cost ou.CostModel, acc accuracy.Model, strategy string, budget int) *Context {
	k := ctxKey{Grid: g, Cost: cost, Acc: acc, Strategy: strategy, Budget: budget}
	c.mu.RLock()
	x := c.ctxs[k]
	c.mu.RUnlock()
	if x != nil {
		return x
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if x = c.ctxs[k]; x != nil {
		return x
	}
	n := g.Levels()
	x = &Context{
		cache:   c,
		acc:     acc,
		grid:    g,
		irs:     make([]float64, 0, n*n),
		entries: make(map[Key]*Entry),
	}
	for ri := 0; ri < n; ri++ {
		for ci := 0; ci < n; ci++ {
			x.irs = append(x.irs, acc.IRFraction(g.SizeAt(ri, ci)))
		}
	}
	sort.Float64s(x.irs)
	c.ctxs[k] = x
	return x
}

// Bucket returns the age bucket of layer j (of total) at device age t: the
// number of grid sizes satisfying the η constraint. The predicate is the
// exact expression accuracy.Model.Satisfies evaluates — (w·ir)·A < η with
// ir precomputed — so bucket membership is bit-identical to the checks the
// uncached search performs; in particular Bucket == 0 exactly when
// accuracy.Model.AnySatisfiable reports false.
func (x *Context) Bucket(j, total int, t float64) int {
	w := x.acc.Sens.Weight(j, total)
	amp := x.acc.Amplification(t)
	eta := x.acc.Eta
	// Feasibility is non-increasing along the ascending NF_IR order
	// (multiplying by positive w then amp is weakly monotone in IEEE-754),
	// so the first infeasible index is the feasible count.
	return sort.Search(len(x.irs), func(i int) bool {
		return !((w*x.irs[i])*amp < eta)
	})
}

// Lookup returns the memoized decision for k, if present.
func (x *Context) Lookup(k Key) (*Entry, bool) {
	x.mu.RLock()
	e, ok := x.entries[k]
	x.mu.RUnlock()
	if ok {
		x.cache.decHits.Add(1)
		if x.cache.tDecHits != nil {
			x.cache.tDecHits.Inc()
		}
		return e, true
	}
	x.cache.decMisses.Add(1)
	if x.cache.tDecMisses != nil {
		x.cache.tDecMisses.Inc()
	}
	return nil, false
}

// Store memoizes a decision. The entry (including its slices) must not be
// mutated afterwards. Exceeding the decision cap flushes this context
// wholesale; the trigger depends only on the insertion count, so shared
// caches stay deterministic.
func (x *Context) Store(k Key, e *Entry) {
	x.mu.Lock()
	if x.inserts >= x.cache.opts.MaxDecisions {
		x.entries = make(map[Key]*Entry)
		x.inserts = 0
		x.mu.Unlock()
		x.cache.countFlush()
		x.mu.Lock()
	}
	x.entries[k] = e
	x.inserts++
	x.mu.Unlock()
}

// Len returns the number of memoized decisions in this context.
func (x *Context) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.entries)
}

// PredictLookup returns the memoized prediction of pol for f, if present.
// The memo is exact — keyed by the policy's (ID, Version) and the full
// feature struct — so a hit is bit-identical to calling Predict.
func (c *Cache) PredictLookup(pol *policy.Policy, f policy.Features) (ou.Size, bool) {
	k := predKey{ID: pol.ID(), Version: pol.Version(), F: f}
	c.mu.RLock()
	s, ok := c.pred[k]
	c.mu.RUnlock()
	if ok {
		c.predHits.Add(1)
		if c.tPredHits != nil {
			c.tPredHits.Inc()
		}
		return s, true
	}
	c.predMisses.Add(1)
	if c.tPredMisses != nil {
		c.tPredMisses.Inc()
	}
	return ou.Size{}, false
}

// PredictStore memoizes one prediction. Exceeding the prediction cap
// flushes the memo wholesale.
func (c *Cache) PredictStore(pol *policy.Policy, f policy.Features, s ou.Size) {
	k := predKey{ID: pol.ID(), Version: pol.Version(), F: f}
	c.mu.Lock()
	if len(c.pred) >= c.opts.MaxPredictions {
		c.pred = make(map[predKey]ou.Size)
		c.mu.Unlock()
		c.countFlush()
		c.mu.Lock()
	}
	c.pred[k] = s
	c.mu.Unlock()
}
