package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"odin/internal/core"
)

// TestLifetimeOrdering asserts on the lifetime run whose bytes
// TestGoldenArtifacts freezes.
func TestLifetimeOrdering(t *testing.T) {
	t.Parallel()
	res := runOnce(t, "lifetime").(LifetimeResult)
	if len(res.Rows) != 5 {
		t.Fatalf("expected 5 rows, got %d", len(res.Rows))
	}
	byName := map[string]LifetimeRow{}
	for _, row := range res.Rows {
		byName[row.Name] = row
	}
	odin := byName["Odin"]
	coarse := byName["16×16"]
	// The endurance story: Odin's sparse reprogramming buys orders of
	// magnitude more service life than the coarse homogeneous baseline.
	if !math.IsInf(odin.LifetimeYears, 1) && odin.LifetimeYears < 100*coarse.LifetimeYears {
		t.Errorf("Odin lifetime %v yr not ≫ 16×16's %v yr", odin.LifetimeYears, coarse.LifetimeYears)
	}
	// Wear fractions follow reprogram counts exactly.
	for name, row := range byName {
		if row.Reprograms > 0 && row.WearFraction <= 0 {
			t.Errorf("%s has reprograms but zero wear", name)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "lifetime") {
		t.Fatal("render output malformed")
	}
}

func TestNoCValidateTightBound(t *testing.T) {
	t.Parallel()
	res, err := NoCValidate(core.DefaultSystem())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("expected 9 workloads, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Ratio < 1-1e-9 {
			t.Errorf("%s: simulation beat the analytic bound (%v)", row.Workload, row.Ratio)
		}
		if row.Ratio > 3 {
			t.Errorf("%s: analytic bound loose by %v×", row.Workload, row.Ratio)
		}
		if row.Flows <= 0 || row.EnergyJ <= 0 {
			t.Errorf("%s: degenerate traffic", row.Workload)
		}
	}
}

// TestMobileNetExtension asserts on the mobilenet run whose bytes
// TestGoldenArtifacts freezes.
func TestMobileNetExtension(t *testing.T) {
	t.Parallel()
	res := runOnce(t, "mobilenet").(MobileNetResult)
	if len(res.Rows) != 5 {
		t.Fatalf("expected 5 rows, got %d", len(res.Rows))
	}
	odin := res.OdinRow()
	if odin.Name != "Odin" {
		t.Fatalf("last row %s, want Odin", odin.Name)
	}
	// The layer-wise adaptivity claim generalises to the unseen
	// depthwise-separable class: Odin still wins EDP against every baseline.
	for _, row := range res.Rows[:len(res.Rows)-1] {
		if odin.EDP >= row.EDP {
			t.Errorf("Odin EDP %v not below %s's %v on MobileNetV2", odin.EDP, row.Name, row.EDP)
		}
	}
	if odin.Reprograms > 4 {
		t.Errorf("Odin reprogrammed %d times", odin.Reprograms)
	}
	if odin.MinAcc < 0.92 {
		t.Errorf("Odin accuracy %v dropped on MobileNetV2", odin.MinAcc)
	}
}

func TestRowSkipValidation(t *testing.T) {
	t.Parallel()
	res, err := RowSkip(core.DefaultSystem(), []int{8, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if diff := row.Analytic - row.Measured; diff > 0.1 || diff < -0.1 {
			t.Errorf("width %d: analytic %v vs measured %v diverge",
				row.Width, row.Analytic, row.Measured)
		}
	}
	// Both curves decay with width.
	if !(res.Rows[0].Measured >= res.Rows[2].Measured) {
		t.Error("measured skip should not grow with width")
	}
}

func TestIndexesStorageArgument(t *testing.T) {
	t.Parallel()
	res, err := Indexes(core.DefaultSystem(), []int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	narrow, wide := res.Rows[0], res.Rows[1]
	if narrow.StorageKB <= wide.StorageKB {
		t.Errorf("narrow-OU tables (%v KB) should exceed wide (%v KB)",
			narrow.StorageKB, wide.StorageKB)
	}
	// The §II argument: static multi-width support costs orders of
	// magnitude more storage than Odin's policy + buffer.
	if res.AllWidthsKB < 100*res.OdinKB {
		t.Errorf("storage argument too weak: %v KB static vs %v KB Odin",
			res.AllWidthsKB, res.OdinKB)
	}
	if res.OdinKB <= 0 {
		t.Fatal("Odin storage missing")
	}
}
