package decache

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"odin/internal/accuracy"
	"odin/internal/check"
	"odin/internal/ou"
	"odin/internal/pim"
	"odin/internal/reram"
	"odin/internal/sparsity"
	"odin/internal/telemetry"
)

func testPlatform() (ou.Grid, ou.CostModel, accuracy.Model) {
	arch := pim.DefaultArch()
	return arch.Grid(), arch.CostModel(), accuracy.Default(reram.DefaultDeviceParams())
}

func testWork() ou.LayerWork {
	return ou.LayerWork{Xbars: 4, RowsUsed: 128, ColsUsed: 96,
		Sparsity: sparsity.Profile{Weight: 0.3, Cluster: 0.5, ClusterWidth: 4}}
}

// bucketCase is one random (layer, age) bucket probe.
type bucketCase struct {
	J, Total int
	AgeExp   float64 // age = 10^AgeExp seconds
}

func genBucketCase() check.Gen[bucketCase] {
	return check.Gen[bucketCase]{
		Generate: func(t *check.T) bucketCase {
			total := 1 + t.Rng.Intn(24)
			return bucketCase{
				J:      t.Rng.Intn(total),
				Total:  total,
				AgeExp: t.Rng.Float64() * 8.5, // past the 10^8 s horizon
			}
		},
		Shrink: func(c bucketCase) []bucketCase {
			var out []bucketCase
			for _, v := range check.ShrinkInt(c.Total, 1) {
				m := c
				m.Total = v
				if m.J >= m.Total {
					m.J = m.Total - 1
				}
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

// TestPropBucketMatchesSatisfies pins the age-bucket contract: the bucket
// is exactly the number of grid sizes accuracy.Model.Satisfies accepts at
// that age, and bucket 0 coincides with AnySatisfiable reporting false —
// the bit-identity the cached controller's degraded check relies on.
func TestPropBucketMatchesSatisfies(t *testing.T) {
	t.Parallel()
	grid, cost, acc := testPlatform()
	x := New().Context(grid, cost, acc, "rb", 3)
	check.RunConfig(t, check.Config{Trials: 200}, genBucketCase(), func(c bucketCase) error {
		age := math.Pow(10, c.AgeExp)
		want := 0
		n := grid.Levels()
		for ri := 0; ri < n; ri++ {
			for ci := 0; ci < n; ci++ {
				if acc.Satisfies(c.J, c.Total, grid.SizeAt(ri, ci), age) {
					want++
				}
			}
		}
		got := x.Bucket(acc.Sens.Weight(c.J, c.Total), acc.Amplification(age))
		if got != want {
			return fmt.Errorf("bucket %d, brute-force feasible count %d (layer %d/%d age 1e%.3f)",
				got, want, c.J, c.Total, c.AgeExp)
		}
		if (got == 0) != !acc.AnySatisfiable(c.J, c.Total, grid, age) {
			return fmt.Errorf("bucket %d disagrees with AnySatisfiable=%v",
				got, acc.AnySatisfiable(c.J, c.Total, grid, age))
		}
		return nil
	})
}

// TestPropBucketMonotoneInAge: drift only shrinks the feasible set, so the
// bucket must be non-increasing in age — the property that makes "bucket"
// an age quantisation rather than an arbitrary hash.
func TestPropBucketMonotoneInAge(t *testing.T) {
	t.Parallel()
	grid, cost, acc := testPlatform()
	x := New().Context(grid, cost, acc, "rb", 3)
	check.RunConfig(t, check.Config{Trials: 100},
		check.PairOf(genBucketCase(), check.Float64Range(0, 8.5)),
		func(p check.Pair[bucketCase, float64]) error {
			c := p.A
			a1, a2 := math.Pow(10, c.AgeExp), math.Pow(10, p.B)
			if a1 > a2 {
				a1, a2 = a2, a1
			}
			w := acc.Sens.Weight(c.J, c.Total)
			b1 := x.Bucket(w, acc.Amplification(a1))
			b2 := x.Bucket(w, acc.Amplification(a2))
			if b2 > b1 {
				return fmt.Errorf("bucket grew with age: %d at %g s -> %d at %g s", b1, a1, b2, a2)
			}
			return nil
		})
}

func TestContextInterning(t *testing.T) {
	t.Parallel()
	grid, cost, acc := testPlatform()
	c := New()
	a := c.Context(grid, cost, acc, "rb", 3)
	if b := c.Context(grid, cost, acc, "rb", 3); b != a {
		t.Fatalf("identical platform+strategy+budget returned distinct contexts")
	}
	if b := c.Context(grid, cost, acc, "ex", 3); b == a {
		t.Fatalf("strategy change aliased the decision context")
	}
	if b := c.Context(grid, cost, acc, "rb", 5); b == a {
		t.Fatalf("budget change aliased the decision context")
	}
	acc2 := acc
	acc2.Eta *= 2
	if b := c.Context(grid, cost, acc2, "rb", 3); b == a {
		t.Fatalf("accuracy-model change aliased the decision context")
	}
}

func TestLookupStoreCounters(t *testing.T) {
	t.Parallel()
	grid, cost, acc := testPlatform()
	c := New()
	x := c.Context(grid, cost, acc, "rb", 3)
	k := Key{Work: testWork(), Layer: 1, Of: 8, Predicted: grid.SizeAt(1, 1), Bucket: 7}
	if _, ok := x.Lookup(k); ok {
		t.Fatalf("lookup hit on empty cache")
	}
	e := Entry{Chosen: grid.SizeAt(0, 1), Evaluations: 9}
	x.Store(k, e)
	got, ok := x.Lookup(k)
	if !ok || got != e {
		t.Fatalf("stored entry not returned: ok=%v", ok)
	}
	if _, ok := x.Lookup(Key{Work: testWork(), Layer: 1, Of: 8,
		Predicted: grid.SizeAt(1, 1), Bucket: 6}); ok {
		t.Fatalf("bucket change must miss")
	}
	cs := c.Counters()
	if cs.DecisionHits != 1 || cs.DecisionMisses != 2 {
		t.Fatalf("counters %+v, want 1 hit / 2 misses", cs)
	}
}

// TestDecisionCapFlushesWholesale: overflowing maxDecisions must flush the
// context deterministically (insertion-count trigger) rather than evicting
// a map-order-dependent victim.
func TestDecisionCapFlushesWholesale(t *testing.T) {
	t.Parallel()
	grid, cost, acc := testPlatform()
	c := New()
	x := c.Context(grid, cost, acc, "rb", 3)
	w := testWork()
	for i := 0; i < maxDecisions; i++ {
		x.Store(Key{Work: w, Layer: i, Of: maxDecisions + 1, Predicted: grid.SizeAt(0, 0), Bucket: 3},
			Entry{Chosen: grid.SizeAt(0, 0)})
	}
	if x.Len() != maxDecisions || c.Counters().Flushes != 0 {
		t.Fatalf("pre-overflow: len %d flushes %d", x.Len(), c.Counters().Flushes)
	}
	x.Store(Key{Work: w, Layer: maxDecisions, Of: maxDecisions + 1, Predicted: grid.SizeAt(0, 0), Bucket: 3},
		Entry{Chosen: grid.SizeAt(0, 0)})
	if x.Len() != 1 {
		t.Fatalf("overflow kept %d entries, want 1 (the new one)", x.Len())
	}
	if c.Counters().Flushes != 1 {
		t.Fatalf("overflow flushes = %d, want 1", c.Counters().Flushes)
	}
}

func TestTelemetryCounters(t *testing.T) {
	t.Parallel()
	grid, cost, acc := testPlatform()
	reg := telemetry.NewRegistry()
	c := NewWith(Options{Registry: reg})
	x := c.Context(grid, cost, acc, "rb", 3)
	k := Key{Work: testWork(), Layer: 0, Of: 2, Predicted: grid.SizeAt(0, 0), Bucket: 1}
	x.Lookup(k)
	x.Store(k, Entry{Chosen: grid.SizeAt(0, 0)})
	x.Lookup(k)
	// Storing past the decision cap flushes the context once.
	for i := 0; i < maxDecisions; i++ {
		x.Store(Key{Work: testWork(), Layer: i + 1, Of: maxDecisions + 1, Predicted: grid.SizeAt(0, 0), Bucket: 1},
			Entry{Chosen: grid.SizeAt(0, 0)})
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("write prometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"odin_decache_decision_hits_total 1",
		"odin_decache_decision_misses_total 1",
		"odin_decache_flushes_total 1",
		"odin_decache_predict_hits_total 0",
		"odin_decache_predict_misses_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("telemetry output missing %q:\n%s", want, out)
		}
	}
}

// TestHitPathAllocFree pins the cached decision hot path at zero
// allocations: bucket resolution and decision lookup.
func TestHitPathAllocFree(t *testing.T) {
	grid, cost, acc := testPlatform()
	c := New()
	x := c.Context(grid, cost, acc, "rb", 3)
	k := Key{Work: testWork(), Layer: 3, Of: 11, Predicted: grid.SizeAt(2, 2), Bucket: 9}
	x.Store(k, Entry{Chosen: grid.SizeAt(2, 2), Evaluations: 4})
	allocs := testing.AllocsPerRun(1000, func() {
		kk := k
		kk.Bucket = x.Bucket(acc.Sens.Weight(3, 11), acc.Amplification(1e4))
		kk.Bucket = 9
		if _, ok := x.Lookup(kk); !ok {
			t.Fatalf("decision miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("cached hit path allocates %.1f/op, want 0", allocs)
	}
}
