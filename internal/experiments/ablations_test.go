package experiments

import (
	"bytes"
	"testing"

	"odin/internal/core"
)

// The ablation tests use reduced sweeps — they verify trends and wiring,
// not the full grids the CLI prints.

func TestAblSearchBudgetTrend(t *testing.T) {
	t.Parallel()
	base := cachedBase()
	res, err := AblSearchBudget(core.DefaultSystem(), base, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	k1, k3 := res.Rows[0], res.Rows[1]
	// More search budget → more evaluations per decision.
	if k3.EvalsPerLayer <= k1.EvalsPerLayer {
		t.Errorf("K=3 evals %v not above K=1 %v", k3.EvalsPerLayer, k1.EvalsPerLayer)
	}
	// RB stays within a sane factor of the exhaustive controller.
	for _, row := range res.Rows {
		if row.EDPvsExhaustive < 0.5 || row.EDPvsExhaustive > 3 {
			t.Errorf("K=%d EDP vs EX = %v implausible", row.K, row.EDPvsExhaustive)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("no render output")
	}
	requireLookups(t, "abl-k", base)
}

func TestAblBufferTrend(t *testing.T) {
	t.Parallel()
	base := cachedBase()
	res, err := AblBuffer(core.DefaultSystem(), base, []int{10, 100})
	if err != nil {
		t.Fatal(err)
	}
	small, large := res.Rows[0], res.Rows[1]
	// Smaller buffers fill faster → at least as many updates.
	if small.PolicyUpdates < large.PolicyUpdates {
		t.Errorf("capacity 10 updated %d times, capacity 100 %d times",
			small.PolicyUpdates, large.PolicyUpdates)
	}
	// Storage scales with capacity.
	if small.StorageKB >= large.StorageKB {
		t.Error("storage did not grow with capacity")
	}
	requireLookups(t, "abl-buffer", base)
}

func TestAblEtaTrend(t *testing.T) {
	t.Parallel()
	base := cachedBase()
	res, err := AblEta(core.DefaultSystem(), base, []float64{0.0025, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	tight, loose := res.Rows[0], res.Rows[1]
	// A tighter threshold can only reprogram at least as often and can only
	// hold accuracy at least as well.
	if tight.Reprograms < loose.Reprograms {
		t.Errorf("tight η reprogrammed %d, loose %d", tight.Reprograms, loose.Reprograms)
	}
	if tight.MinAcc < loose.MinAcc-1e-9 {
		t.Errorf("tight η min accuracy %v below loose %v", tight.MinAcc, loose.MinAcc)
	}
	requireLookups(t, "abl-eta", base)
}

func TestAblRateCrossover(t *testing.T) {
	t.Parallel()
	base := cachedBase()
	res, err := AblRate(core.DefaultSystem(), base, []float64{1e-5, 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	lowRate, highRate := res.Rows[0], res.Rows[1]
	// Reprogramming dominates at low rates: Odin's advantage shrinks
	// monotonically as the inference stream densifies.
	if lowRate.EDPRatio <= highRate.EDPRatio {
		t.Errorf("EDP ratio should fall with rate: %v -> %v", lowRate.EDPRatio, highRate.EDPRatio)
	}
	// Odin never loses at either extreme.
	if highRate.EDPRatio < 1 {
		t.Errorf("16×16 beat Odin at high rate: %v", highRate.EDPRatio)
	}
	requireLookups(t, "abl-rate", base)
}

func TestAblClusterTracksWidth(t *testing.T) {
	t.Parallel()
	res, err := AblCluster(core.DefaultSystem(), []int{4, 64})
	if err != nil {
		t.Fatal(err)
	}
	narrow, wide := res.Rows[0], res.Rows[1]
	// The optimal OU width follows the pruning granularity.
	if narrow.MeanOUWidth >= wide.MeanOUWidth {
		t.Errorf("optimal C did not grow with cluster width: %v vs %v",
			narrow.MeanOUWidth, wide.MeanOUWidth)
	}
}

func TestAblPolicyArchitectures(t *testing.T) {
	t.Parallel()
	res, err := AblPolicy(core.DefaultSystem(), [][]int{{}, {16}})
	if err != nil {
		t.Fatal(err)
	}
	linear, trunk := res.Rows[0], res.Rows[1]
	if linear.Name != "linear" || trunk.Name != "trunk-16" {
		t.Fatalf("unexpected names: %q %q", linear.Name, trunk.Name)
	}
	// The trunk adds parameters (and §V.E power).
	if trunk.Params <= linear.Params {
		t.Error("trunk policy should have more parameters")
	}
	if trunk.PowerMW <= 0 || linear.PowerMW <= 0 {
		t.Error("power estimates missing")
	}
	// Both learn something non-trivial on the held-out family.
	for _, row := range res.Rows {
		if row.Agreement < 0.05 {
			t.Errorf("%s agreement %v implausibly low", row.Name, row.Agreement)
		}
	}
}
