// Package decache memoizes the controller's per-layer line-6 decision —
// the clamp → search pass of Algorithm 1 that follows the line-5
// prediction — so repeated decisions on the same layer at equivalent drift
// ages cost a map lookup instead of a search. It memoizes nothing else:
// the prediction itself is recomputed every time, since its device-age
// input rarely repeats.
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
//     is a lower level set of the fixed NF_IR ordering (in real numbers
//     {s : NF_IR(s) < η/(w_j·A(t))}; the code never divides, it tests
//     (w_j·NF_IR(s))·A(t) < η). Counting the feasible sizes therefore
//     identifies the set exactly — that count is the "age bucket". Sizes
//     with equal NF_IR (e.g. 4×8 and 8×4) enter or leave feasibility
//     together, so the count is unambiguous.
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
// asserted end to end by `make smoke`. An entry holds only what a run
// report reads, the choice and its evaluation count: a controller with a
// decision-audit log attaches no cache, so every audit record comes from
// the live search.
//
// The bucket predicate reuses accuracy.Model.Satisfies' exact expression
// shape ((w·ir)·A < η with ir precomputed per grid size, and w_j and A(t)
// passed in by the caller, which resolves them once per controller and
// once per run), so bucketing is bit-identical to the checks the uncached
// path performs, including the bucket==0 ⇔ !AnySatisfiable degenerate
// case.
//
// # Invalidation contract
//
//   - Reprogram resets the device age, which moves decisions to the fresh
//     age bucket; pre-reprogram entries become unreachable by key, never
//     stale-served (metamorphic tests in internal/core inject poisoned
//     entries to prove it).
//   - A policy weight update (Train) or hot-swap needs no invalidation:
//     entries are keyed by the predicted size itself, so they stay valid
//     and simply stop being reached when predictions move.
//   - A strategy or budget change lands in a different Context; Contexts
//     never alias across strategies.
//
// A Cache may be shared across controllers (the serving layer shares one
// per fleet): all methods are safe for concurrent use, and because every
// value is a pure function of its key, races between lookup and store are
// benign — any interleaving yields the same bytes.
package decache

import (
	"sort"
	"sync"

	"odin/internal/accuracy"
	"odin/internal/ou"
	"odin/internal/telemetry"
)

// maxDecisions caps the decision entries per context; exceeding it
// flushes that context wholesale (deterministically: the flush depends only
// on insertion count, never on map order).
const maxDecisions = 4096

// Options tune a Cache.
type Options struct {
	// Registry, when non-nil, exports the hit/miss/flush counters as
	// odin_decache_* Prometheus series.
	Registry *telemetry.Registry
}

// Counters is a point-in-time snapshot of cache activity. Counter values
// depend on scheduling when a Cache is shared across goroutines (who
// populates first); they feed observability only and must never be
// rendered into deterministic artefacts.
type Counters struct {
	DecisionHits, DecisionMisses uint64
	// PredictHits and PredictMisses are always 0: there is no prediction
	// memo any more. The repository benchmark still reads them; its next
	// change (ROADMAP item 2) deletes them.
	PredictHits, PredictMisses uint64
	Flushes                    uint64
}

// Cache memoizes line-6 decisions.
type Cache struct {
	mu   sync.RWMutex
	ctxs map[ctxKey]*Context

	// hits, misses and flushes are the odin_decache_* series of
	// Options.Registry, or standalone counters without one.
	hits, misses, flushes *telemetry.Counter
}

// New creates a cache with no telemetry.
func New() *Cache { return NewWith(Options{}) }

// NewWith creates a cache with explicit options.
func NewWith(opts Options) *Cache {
	c := &Cache{ctxs: make(map[ctxKey]*Context),
		hits: new(telemetry.Counter), misses: new(telemetry.Counter), flushes: new(telemetry.Counter)}
	if r := opts.Registry; r != nil {
		c.hits = r.Counter("odin_decache_decision_hits_total",
			"line-6 decisions served from the decision cache")
		c.misses = r.Counter("odin_decache_decision_misses_total",
			"line-6 decisions computed and stored by the decision cache")
		// The predict families stay at 0: the prediction memo is gone,
		// and the repository benchmark still scrapes them until its
		// next change (ROADMAP item 2) deletes them.
		const zero = "always 0, no prediction memo exists; the benchmark-side change of ROADMAP item 2 deletes this family"
		r.Counter("odin_decache_predict_hits_total", zero)
		r.Counter("odin_decache_predict_misses_total", zero)
		c.flushes = r.Counter("odin_decache_flushes_total",
			"wholesale flushes of one context, when a store exceeds its 4096-decision cap")
	}
	return c
}

// Counters returns a snapshot of cache activity.
func (c *Cache) Counters() Counters {
	return Counters{
		DecisionHits:   c.hits.Value(),
		DecisionMisses: c.misses.Value(),
		Flushes:        c.flushes.Value(),
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

// Entry is one memoized decision, as a run report reads it: the final
// choice (after the not-found fallback to the clamped start) and the
// candidate evaluations the search spent.
type Entry struct {
	Chosen      ou.Size
	Evaluations int
}

// Context is the per-(platform, strategy, budget) decision table. It
// precomputes the sorted NF_IR values of the grid so an age bucket is one
// binary search over them, given the w_j and A(t) the caller already
// holds.
type Context struct {
	cache *Cache
	acc   accuracy.Model
	grid  ou.Grid

	// irs holds NF_IR for every grid size, ascending (duplicates kept):
	// the lower level sets of this ordering are exactly the feasible sets.
	irs []float64

	mu      sync.RWMutex
	entries map[Key]Entry
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
		entries: make(map[Key]Entry),
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

// Bucket returns the age bucket of a layer with sensitivity weight w at
// drift amplification amp — w = Sens.Weight(j, total) and amp =
// Amplification(t) of the context's accuracy model for layer j at device
// age t: the number of grid sizes satisfying the η constraint. The
// predicate is the exact expression accuracy.Model.Satisfies evaluates —
// (w·ir)·A < η with ir precomputed — so bucket membership is bit-identical
// to the checks the uncached search performs; in particular Bucket == 0
// exactly when accuracy.Model.AnySatisfiable reports false.
func (x *Context) Bucket(w, amp float64) int {
	eta := x.acc.Eta
	// Feasibility is non-increasing along the ascending NF_IR order
	// (multiplying by positive w then amp is weakly monotone in IEEE-754),
	// so the first infeasible index is the feasible count.
	return sort.Search(len(x.irs), func(i int) bool {
		return !((w*x.irs[i])*amp < eta)
	})
}

// Lookup returns the memoized decision for k, if present.
func (x *Context) Lookup(k Key) (Entry, bool) {
	x.mu.RLock()
	e, ok := x.entries[k]
	x.mu.RUnlock()
	if ok {
		x.cache.hits.Inc()
		return e, true
	}
	x.cache.misses.Inc()
	return Entry{}, false
}

// Store memoizes a decision. Exceeding the decision cap flushes this
// context wholesale; the trigger depends only on the insertion count, so
// shared caches stay deterministic.
func (x *Context) Store(k Key, e Entry) {
	x.mu.Lock()
	if x.inserts >= maxDecisions {
		x.entries = make(map[Key]Entry)
		x.inserts = 0
		x.mu.Unlock()
		x.cache.flushes.Inc()
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
