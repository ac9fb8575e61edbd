package core

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"odin/internal/check"
	"odin/internal/decache"
	"odin/internal/dnn"
	"odin/internal/obs"
	"odin/internal/ou"
	"odin/internal/policy"
)

// zooWorkloads prepares each zoo model once per test binary: Prepare cost
// (pruning, cost precomputation) dwarfs a decision pass and the property
// trials only need read access to the shared workloads.
var zooWorkloads = struct {
	once sync.Once
	sys  System
	wls  []*Workload
}{}

func preparedZoo(t testing.TB) (System, []*Workload) {
	zooWorkloads.once.Do(func() {
		zooWorkloads.sys = DefaultSystem()
		for _, m := range dnn.AllWorkloads() {
			wl, err := zooWorkloads.sys.Prepare(m)
			if err != nil {
				panic(fmt.Sprintf("prepare %s: %v", m.Name, err))
			}
			zooWorkloads.wls = append(zooWorkloads.wls, wl)
		}
	})
	if len(zooWorkloads.wls) == 0 {
		t.Fatal("no zoo workloads prepared")
	}
	return zooWorkloads.sys, zooWorkloads.wls
}

// cacheCase drives one cached-vs-uncached controller comparison.
type cacheCase struct {
	Model    int     // index into the prepared zoo
	Strategy string  // line-6 optimizer name
	AgeExp   float64 // first run at 10^AgeExp seconds
	Runs     int     // number of run times (each executed twice → cache hits)
}

func genCacheCase(models int) check.Gen[cacheCase] {
	return check.Gen[cacheCase]{
		Generate: func(t *check.T) cacheCase {
			strategies := []string{"rb", "ex", "bo", "pareto"}
			return cacheCase{
				Model:    t.Rng.Intn(models),
				Strategy: strategies[t.Rng.Intn(len(strategies))],
				AgeExp:   t.Rng.Float64() * 8.5,
				Runs:     1 + t.Rng.Intn(3),
			}
		},
		Shrink: func(c cacheCase) []cacheCase {
			var out []cacheCase
			for _, v := range check.ShrinkInt(c.Runs, 1) {
				m := c
				m.Runs = v
				out = append(out, m)
			}
			for _, v := range check.ShrinkInt(c.Model, 0) {
				m := c
				m.Model = v
				out = append(out, m)
			}
			for _, v := range check.ShrinkFloat(c.AgeExp, 0) {
				m := c
				m.AgeExp = v
				out = append(out, m)
			}
			return out
		},
	}
}

// stripCached zeroes the one field that legitimately differs between a
// cached and an uncached audit log: the Cached attribution flag. Everything
// else — predictions, clamps, choices, strategies, evaluation budgets,
// every candidate score, Pareto fronts, reprogram flags — must match
// exactly.
func stripCached(runs []obs.RunAudit) []obs.RunAudit {
	for i := range runs {
		for j := range runs[i].Layers {
			runs[i].Layers[j].Cached = false
		}
	}
	return runs
}

// bitsEq is float equality at the representation level: identical bit
// patterns, including NaN (infeasible candidates carry EDP = NaN, which
// reflect.DeepEqual would reject even when both logs hold the very same
// NaN). This is the byte-identity the cache contract promises.
func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// auditEqual compares two audit logs record by record at bit level.
func auditEqual(a, b []obs.RunAudit) error {
	if len(a) != len(b) {
		return fmt.Errorf("audit run counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i], b[i]
		if !bitsEq(ra.Time, rb.Time) || !bitsEq(ra.Age, rb.Age) || ra.Reprogrammed != rb.Reprogrammed {
			return fmt.Errorf("run %d headers differ", i)
		}
		if len(ra.Layers) != len(rb.Layers) {
			return fmt.Errorf("run %d layer counts differ: %d vs %d", i, len(ra.Layers), len(rb.Layers))
		}
		for j := range ra.Layers {
			la, lb := ra.Layers[j], rb.Layers[j]
			if la.Layer != lb.Layer || la.Predicted != lb.Predicted ||
				la.Start != lb.Start || la.Chosen != lb.Chosen ||
				la.Strategy != lb.Strategy || la.Evaluations != lb.Evaluations ||
				la.PolicyWon != lb.PolicyWon || la.Cached != lb.Cached {
				return fmt.Errorf("run %d layer %d decisions differ:\n  %+v\n  %+v", i, j, la, lb)
			}
			if len(la.Candidates) != len(lb.Candidates) {
				return fmt.Errorf("run %d layer %d probe counts differ: %d vs %d",
					i, j, len(la.Candidates), len(lb.Candidates))
			}
			for k := range la.Candidates {
				ca, cb := la.Candidates[k], lb.Candidates[k]
				if ca.Size != cb.Size || ca.Feasible != cb.Feasible ||
					!bitsEq(ca.Energy, cb.Energy) || !bitsEq(ca.Latency, cb.Latency) ||
					!bitsEq(ca.EDP, cb.EDP) || !bitsEq(ca.NF, cb.NF) {
					return fmt.Errorf("run %d layer %d candidate %d differs:\n  %+v\n  %+v",
						i, j, k, ca, cb)
				}
			}
			if len(la.Front) != len(lb.Front) {
				return fmt.Errorf("run %d layer %d front sizes differ: %d vs %d",
					i, j, len(la.Front), len(lb.Front))
			}
			for k := range la.Front {
				if la.Front[k] != lb.Front[k] {
					return fmt.Errorf("run %d layer %d front[%d] differs: %v vs %v",
						i, j, k, la.Front[k], lb.Front[k])
				}
			}
		}
	}
	return nil
}

// TestPropCachedControllerByteIdentical is the decision-cache contract at
// controller level: over randomized zoo models, device ages and every
// registered line-6 strategy, a cached controller and an uncached twin
// (same system, same policy seed, same run sequence) produce identical
// RunReports and identical audit logs (chosen OU sizes, probe sequences,
// candidate scores) modulo the Cached attribution flag. Each run time is
// executed twice so replayed (hit) decisions are actually exercised, not
// just first-visit misses.
//
// Mutation-smoke (2026-08-07): deliberately breaking the replay path —
// collapsing decache.Context.Bucket to min(bucket, 1), so stale aged
// decisions get served at other ages — was caught at trial 0 by the
// decache-level TestPropBucketMatchesSatisfies and at trial 1 by this
// property (candidate 4 flipped Feasible across a replay), each with a
// one-line replay (`ODINCHECK_SEED=<seed> ODINCHECK_TRIALS=1 go test -run
// '^Test...$' .`); the break was then reverted. The exercise pins that the
// suite actually discriminates rather than vacuously passing.
func TestPropCachedControllerByteIdentical(t *testing.T) {
	t.Parallel()
	sys, wls := preparedZoo(t)
	hits := 0
	check.RunConfig(t, check.Config{Trials: 12}, genCacheCase(len(wls)), func(c cacheCase) error {
		wl := wls[c.Model]
		opts := DefaultControllerOptions()
		opts.Strategy = c.Strategy

		cachedOpts := opts
		cachedOpts.Cache = decache.New()
		cachedOpts.Audit = obs.NewAuditLog(0)
		cached, err := NewController(sys, wl, freshPolicy(sys), cachedOpts)
		if err != nil {
			return fmt.Errorf("cached controller: %w", err)
		}

		plainOpts := opts
		plainOpts.DisableDecisionCache = true
		plainOpts.Audit = obs.NewAuditLog(0)
		plain, err := NewController(sys, wl, freshPolicy(sys), plainOpts)
		if err != nil {
			return fmt.Errorf("uncached controller: %w", err)
		}
		if plain.DecisionCache() != nil {
			return fmt.Errorf("DisableDecisionCache left a cache attached")
		}

		base := math.Pow(10, c.AgeExp)
		for k := 0; k < c.Runs; k++ {
			tRun := base * (1 + float64(k))
			for rerun := 0; rerun < 2; rerun++ {
				repC := cached.RunInference(tRun)
				repP := plain.RunInference(tRun)
				if !reflect.DeepEqual(repC, repP) {
					return fmt.Errorf("run t=%g rerun=%d: cached report %+v != uncached %+v",
						tRun, rerun, repC, repP)
				}
			}
		}
		auditC := stripCached(cachedOpts.Audit.Runs())
		auditP := plainOpts.Audit.Runs()
		if err := auditEqual(auditC, auditP); err != nil {
			return fmt.Errorf("audit logs diverge (model %d, strategy %s): %w", c.Model, c.Strategy, err)
		}
		cnt := cached.DecisionCache().Counters()
		hits += int(cnt.DecisionHits)
		return nil
	})
	// The doubled run times must have produced replayed decisions somewhere
	// across the trials, or the property only ever compared live passes.
	if hits == 0 {
		t.Fatal("no decision-cache hits across all trials; property never exercised replay")
	}
}

// TestCachedReprogramIgnoresPoisonedStaleEntries is the metamorphic
// invalidation test: a reprogramming pass resets the device age, so
// decisions recorded at pre-reprogram age buckets must never be served
// afterwards. We adversarially inject poisoned entries — absurd chosen
// sizes keyed exactly as a stale pre-reprogram decision would be (same
// work, layer, prediction, but the old age bucket) — and assert the
// post-reprogram run never returns them and stays byte-identical to an
// uncached twin.
func TestCachedReprogramIgnoresPoisonedStaleEntries(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultControllerOptions()
	opts.BufferSize = 1 << 20 // no mid-test policy updates: predictions stay stable
	cache := decache.New()
	cachedOpts := opts
	cachedOpts.Cache = cache
	ctrl, err := NewController(sys, wl, freshPolicy(sys), cachedOpts)
	if err != nil {
		t.Fatal(err)
	}
	plainOpts := opts
	plainOpts.DisableDecisionCache = true
	twin, err := NewController(sys, wl, freshPolicy(sys), plainOpts)
	if err != nil {
		t.Fatal(err)
	}

	// Run 1: deep into drift (reduced but non-empty feasible sets).
	// Run 2: past every deadline — forces a reprogramming pass.
	tAged, tReprogram, tFresh := 3e7, 1e12, 1e12+1
	ageAged := ctrl.Age(tAged)
	for _, tRun := range []float64{tAged, tReprogram} {
		repC, repP := ctrl.RunInference(tRun), twin.RunInference(tRun)
		if !reflect.DeepEqual(repC, repP) {
			t.Fatalf("t=%g: cached and uncached reports diverge before poisoning", tRun)
		}
	}
	if ctrl.Reprograms() != 1 {
		t.Fatalf("Reprograms = %d, want 1", ctrl.Reprograms())
	}

	// Poison: for every layer whose age bucket changed across the
	// reprogram, store a deliberately wrong entry under the stale
	// pre-reprogram bucket with the prediction the controller will make at
	// the fresh age. If bucket invalidation were broken (e.g. keyed on
	// anything but the feasible-set count), the next run would serve these.
	grid := sys.Grid()
	n := grid.Levels()
	marker := grid.SizeAt(n-1, n-1)
	ageFresh := ctrl.Age(tFresh)
	total := wl.Layers()
	poisoned := 0
	for j := 0; j < total; j++ {
		bOld := ctrl.dctx.Bucket(j, total, ageAged)
		bNew := ctrl.dctx.Bucket(j, total, ageFresh)
		if bOld == bNew {
			continue // same bucket would make the injection legitimate
		}
		pred := ctrl.pol.Predict(wl.FeaturesAt(j, ageFresh))
		ctrl.dctx.Store(decache.Key{
			Work: wl.Works[j], Layer: j, Of: total,
			Predicted: pred, Bucket: bOld,
		}, &decache.Entry{Start: marker, Chosen: marker, Found: true, Evaluations: 1})
		poisoned++
	}
	if poisoned == 0 {
		t.Fatal("no layer changed age bucket across the reprogram; test is vacuous")
	}

	repC, repP := ctrl.RunInference(tFresh), twin.RunInference(tFresh)
	if !reflect.DeepEqual(repC, repP) {
		t.Fatalf("post-reprogram cached report diverges from uncached twin:\n%+v\n%+v", repC, repP)
	}
	for j, s := range repC.Sizes {
		if s == marker && repP.Sizes[j] != marker {
			t.Fatalf("layer %d served the poisoned stale entry %v", j, s)
		}
	}
}

// TestCacheSharedAcrossStrategiesNoContamination interleaves two
// controllers with different line-6 strategies on one shared cache (the
// serve-layer deployment shape) and checks each stays byte-identical to
// its own uncached twin: strategy is part of the decision context, so rb
// and ex never read each other's entries, and a budget change gets its own
// context too.
func TestCacheSharedAcrossStrategiesNoContamination(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, err := sys.Prepare(dnn.NewGoogLeNet())
	if err != nil {
		t.Fatal(err)
	}
	shared := decache.New()
	mk := func(strategy string, budget int, cache *decache.Cache) *Controller {
		opts := DefaultControllerOptions()
		opts.Strategy = strategy
		opts.SearchBudget = budget
		if cache != nil {
			opts.Cache = cache
		} else {
			opts.DisableDecisionCache = true
		}
		ctrl, err := NewController(sys, wl, freshPolicy(sys), opts)
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	pairs := []struct{ cached, plain *Controller }{
		{mk("rb", 0, shared), mk("rb", 0, nil)},
		{mk("ex", 0, shared), mk("ex", 0, nil)},
		{mk("rb", 7, shared), mk("rb", 7, nil)}, // budget change → distinct context
	}
	for _, tRun := range []float64{0, 1e6, 1e6, 3e7, 3e7} {
		for i, p := range pairs {
			repC, repP := p.cached.RunInference(tRun), p.plain.RunInference(tRun)
			if !reflect.DeepEqual(repC, repP) {
				t.Fatalf("pair %d t=%g: shared-cache report diverges from uncached twin", i, tRun)
			}
		}
	}
	if c := shared.Counters(); c.DecisionHits == 0 {
		t.Fatal("shared cache saw no hits; interleaving never exercised replay")
	}
}

// TestPolicyUpdateReachesPrediction drives the controller until a
// buffer-full policy update fires, then hot-swaps the policy's weights
// through UnmarshalJSON, and checks that line 5 follows both: the
// controller's predictions, made through the workspace it built before
// either change, equal a fresh Predict call on the current policy.
func TestPolicyUpdateReachesPrediction(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultControllerOptions()
	opts.BufferSize = 5 // update quickly
	opts.Cache = decache.New()
	ctrl, err := NewController(sys, wl, freshPolicy(sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; ctrl.PolicyUpdates() == 0 && k < 50; k++ {
		ctrl.RunInference(1e5 * float64(k+1))
	}
	if ctrl.PolicyUpdates() == 0 {
		t.Fatal("no policy update fired; cannot test that predictions follow it")
	}
	same := func(stage string) {
		t.Helper()
		age := ctrl.Age(5e6)
		for j := 0; j < wl.Layers(); j++ {
			want := ctrl.pol.Predict(wl.FeaturesAt(j, age))
			if got := ctrl.decideLayer(j, age, false).predicted; got != want {
				t.Fatalf("%s, layer %d: controller predicted %v, Predict says %v", stage, j, got, want)
			}
		}
	}
	same("after a policy update")
	swap, err := json.Marshal(policy.New(policy.Config{Grid: sys.Grid(), Hidden: []int{7, 5}, Seed: 42}))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(swap, ctrl.Policy()); err != nil {
		t.Fatal(err)
	}
	same("after a hot swap")
}

// TestCachedDecisionHitPathAllocFree pins the steady-state allocation
// profile of a replayed decision: once a (layer, age-bucket, prediction)
// decision is cached, re-deciding it allocates nothing.
func TestCachedDecisionHitPathAllocFree(t *testing.T) {
	sys := DefaultSystem()
	wl, err := sys.Prepare(dnn.NewVGG11())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultControllerOptions()
	opts.Cache = decache.New()
	ctrl, err := NewController(sys, wl, freshPolicy(sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	const age = 1e6
	_ = ctrl.decideLayer(0, age, false) // warm: miss populates the entry
	var chosen ou.Size
	if avg := testing.AllocsPerRun(1000, func() {
		chosen = ctrl.decideLayer(0, age, false).chosen
	}); avg != 0 {
		t.Fatalf("cached decision hit path allocates %v per op, want 0", avg)
	}
	if _, _, ok := sys.Grid().IndexOf(chosen); !ok {
		t.Fatalf("cached hit returned off-grid size %v", chosen)
	}
	if c := ctrl.DecisionCache().Counters(); c.DecisionHits == 0 {
		t.Fatal("alloc loop never hit the cache")
	}
}
