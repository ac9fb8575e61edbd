package experiments

import (
	"bytes"
	"cmp"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"odin/internal/core"
)

func TestAllUniqueIDsAndRunnable(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 27 {
		t.Fatalf("expected 27 experiments, got %d", len(seen))
	}
}

func TestByID(t *testing.T) {
	t.Parallel()
	e, err := ByID("fig3")
	if err != nil || e.ID != "fig3" {
		t.Fatalf("ByID(fig3) = %+v, %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil || !strings.Contains(err.Error(), "unknown id") {
		t.Fatalf("ByID(fig99) err = %v", err)
	}
}

func TestFamilyOf(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"VGG11":       "VGG",
		"VGG19":       "VGG",
		"ResNet50":    "ResNet",
		"DenseNet121": "DenseNet",
		"ViT":         "ViT",
		"GoogLeNet":   "GoogLeNet",
		"Mystery":     "Mystery",
	}
	for name, want := range cases {
		if got := familyOf(name); got != want {
			t.Errorf("familyOf(%s) = %s, want %s", name, got, want)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	t.Parallel()
	res := Table1(core.DefaultSystem())
	if len(res.Rows) != 9 {
		t.Fatalf("Table I has %d rows, want 9", len(res.Rows))
	}
	if res.TileAreaMM2 < 0.27 || res.TileAreaMM2 > 0.29 {
		t.Fatalf("tile area %v, paper reports 0.28 mm²", res.TileAreaMM2)
	}
	if res.ClockGHz != 1.2 {
		t.Fatalf("clock %v GHz, want 1.2", res.ClockGHz)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	for _, want := range []string{"eDRAM buffer", "Memristor array", "reconfigurable precision 3 to 6 bits"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table I output missing %q", want)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	t.Parallel()
	res := Table2(core.DefaultSystem())
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"1 ohm", "333/0.33 uS", "0.2 s^-1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II output missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	t.Parallel()
	res, err := Fig3(core.DefaultSystem())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 21 {
		t.Fatalf("ResNet18 has %d rows, want 21 layers", len(res.Rows))
	}
	grid := core.DefaultSystem().Grid()
	for _, row := range res.Rows {
		if _, _, ok := grid.IndexOf(row.Size); !ok {
			t.Errorf("layer %d size %v off grid", row.Layer, row.Size)
		}
		if row.Size.Product() >= 128*128 {
			t.Errorf("layer %d uses the full crossbar %v — should violate η", row.Layer, row.Size)
		}
		if row.WeightSparsity <= 0 || row.WeightSparsity >= 100 {
			t.Errorf("layer %d sparsity %v%% out of range", row.Layer, row.WeightSparsity)
		}
	}
	// Paper: the stem is pruned gently and gets a finer OU than the bulk.
	if res.Rows[0].WeightSparsity >= res.Rows[4].WeightSparsity {
		t.Error("stem should be less sparse than mid-network layers")
	}
}

func TestFig4DistributionShiftsLeft(t *testing.T) {
	t.Parallel()
	res, err := Fig4(core.DefaultSystem(), []float64{1, 1e4, 5e7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counts) != 3 {
		t.Fatalf("expected 3 ages, got %d", len(res.Counts))
	}
	// The distribution's centre of mass must move toward fine OUs.
	if !(res.MeanProduct[0] > res.MeanProduct[1] && res.MeanProduct[1] > res.MeanProduct[2]) {
		t.Fatalf("mean OU product not decreasing: %v", res.MeanProduct)
	}
	// Layer counts are conserved at every age.
	for i, counts := range res.Counts {
		total := 0
		for _, n := range counts {
			total += n
		}
		if total != 21 {
			t.Errorf("age %d: %d layers accounted, want 21", i, total)
		}
	}
}

// TestFig5AgreementAndOverhead asserts on the fig5 run whose bytes
// TestGoldenArtifacts freezes.
func TestFig5AgreementAndOverhead(t *testing.T) {
	t.Parallel()
	res := runOnce(t, "fig5").(Fig5Result)
	if len(res.Snapshots) != 3 {
		t.Fatalf("expected 3 snapshots, got %d", len(res.Snapshots))
	}
	for _, s := range res.Snapshots {
		// EX online tracks the offline optimum exactly (same search).
		if s.EXAgreement < 0.99 {
			t.Errorf("t=%v: EX agreement %v, want ≈ 1", s.Age, s.EXAgreement)
		}
		// RB is close but cheaper.
		if s.RBAgreement < 0.3 {
			t.Errorf("t=%v: RB agreement %v implausibly low", s.Age, s.RBAgreement)
		}
	}
	// §V.B: EX ≈ 3× RB comparator work.
	if res.OverheadRatio < 1.5 || res.OverheadRatio > 5 {
		t.Fatalf("EX/RB overhead ratio %v outside the paper's ballpark (~3×)", res.OverheadRatio)
	}
}

// TestFig6Orderings asserts on the fig6 run whose bytes TestGoldenArtifacts
// freezes.
func TestFig6Orderings(t *testing.T) {
	t.Parallel()
	res := runOnce(t, "fig6").(Fig6Result)
	if len(res.Rows) != 5 {
		t.Fatalf("expected 4 baselines + Odin, got %d rows", len(res.Rows))
	}
	byName := map[string]Fig6Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	odin := res.OdinRow()
	if odin.Name != "Odin" {
		t.Fatalf("last row is %s, want Odin", odin.Name)
	}
	// §V.C: reprogram counts order coarse ≫ fine ≫ Odin.
	if !(byName["16×16"].Reprograms > byName["16×4"].Reprograms &&
		byName["16×4"].Reprograms > byName["9×8"].Reprograms &&
		byName["9×8"].Reprograms > byName["8×4"].Reprograms &&
		byName["8×4"].Reprograms >= odin.Reprograms) {
		t.Errorf("reprogram ordering broken: %+v", byName)
	}
	// Odin beats every baseline on total energy (Fig. 6a).
	for name, row := range byName {
		if name == "Odin" {
			continue
		}
		if odin.TotalEnergy >= row.TotalEnergy {
			t.Errorf("Odin total energy %v not below %s's %v", odin.TotalEnergy, name, row.TotalEnergy)
		}
	}
	// 16×16's reprogramming burden dominates its totals.
	if byName["16×16"].TotalEnergy < 2*byName["16×16"].InferenceEnergy {
		t.Error("16×16 total energy should be dominated by reprogramming")
	}
}

// TestFig8Claims makes EXPERIMENTS.md's Fig. 8 who-wins statement
// executable: Odin's normalised EDP is the lowest of the five
// configurations on every workload but DenseNet121, where the order is
// 9×8 < 16×4 < Odin < 8×4 < 16×16, and Odin's mean EDP reduction against
// every baseline exceeds 1.
func TestFig8Claims(t *testing.T) {
	t.Parallel()
	res := runOnce(t, "fig8").(Fig8Result)
	if len(res.Rows) != 9 {
		t.Fatalf("fig8 has %d workloads, want 9", len(res.Rows))
	}
	for _, row := range res.Rows {
		order := []string{"16×16", "16×4", "9×8", "8×4", "Odin"}
		slices.SortStableFunc(order, func(a, b string) int { return cmp.Compare(row.EDP[a], row.EDP[b]) })
		got := strings.Join(order, " < ")
		if row.Workload == "DenseNet121" {
			if want := "9×8 < 16×4 < Odin < 8×4 < 16×16"; got != want {
				t.Errorf("DenseNet121: normalised EDP order %s, want %s (%v)", got, want, row.EDP)
			}
		} else if order[0] != "Odin" {
			t.Errorf("%s: normalised EDP order %s, want Odin lowest (%v)", row.Workload, got, row.EDP)
		}
	}
	for name, red := range res.MeanReduction {
		if !(red > 1) {
			t.Errorf("mean EDP reduction of Odin vs %s = %v, want > 1", name, red)
		}
	}
	if len(res.MeanReduction) != 4 {
		t.Errorf("mean reductions for %d baselines, want 4", len(res.MeanReduction))
	}
}

// TestFig9Claims makes EXPERIMENTS.md's Fig. 9 statement executable on the
// run whose bytes TestGoldenArtifacts freezes: at 128², 64² and 32² every
// baseline's EDP is above Odin's (ratio > 1), 16×16 is the worst baseline,
// and its ratio rises as the crossbar shrinks.
func TestFig9Claims(t *testing.T) {
	t.Parallel()
	res := runOnce(t, "fig9").(Fig9Result)
	if len(res.Rows) != 3 {
		t.Fatalf("fig9 has %d crossbar sizes, want 3", len(res.Rows))
	}
	prev := 0.0
	for i, row := range res.Rows {
		if want := []int{128, 64, 32}[i]; row.CrossbarSize != want {
			t.Errorf("row %d: crossbar %d, want %d", i, row.CrossbarSize, want)
		}
		if len(row.Ratios) != 4 {
			t.Errorf("%d²: %d baselines, want 4 (%v)", row.CrossbarSize, len(row.Ratios), row.Ratios)
		}
		worst := row.Ratios["16×16"]
		for name, ratio := range row.Ratios {
			if !(ratio > 1) {
				t.Errorf("%d²: %s EDP / Odin EDP = %v, want > 1", row.CrossbarSize, name, ratio)
			}
			if ratio > worst {
				t.Errorf("%d²: %s ratio %v above 16×16's %v, want 16×16 worst", row.CrossbarSize, name, ratio, worst)
			}
		}
		if !(worst > prev) {
			t.Errorf("%d²: 16×16 ratio %v, want above the larger crossbar's %v", row.CrossbarSize, worst, prev)
		}
		prev = worst
	}
}

// TestFig7AccuracyStory asserts on the fig7 run whose bytes
// TestGoldenArtifacts freezes.
func TestFig7AccuracyStory(t *testing.T) {
	t.Parallel()
	res := runOnce(t, "fig7").(Fig7Result)
	series := map[string]Fig7Series{}
	for _, s := range res.Series {
		series[s.Name] = s
	}
	noRep := series["16×16 w/o reprog"]
	withRep := series["16×16 w/ reprog"]
	odin := series["Odin"]
	// Paper headline: ≈22-point drop without reprogramming.
	if drop := res.IdealAcc - noRep.MinAcc; drop < 0.15 || drop > 0.35 {
		t.Errorf("16×16 w/o reprogramming drop = %v, want ≈ 0.22", drop)
	}
	// Reprogramming holds accuracy.
	if res.IdealAcc-withRep.MinAcc > 0.02 {
		t.Errorf("16×16 with reprogramming dropped %v", res.IdealAcc-withRep.MinAcc)
	}
	// Odin holds accuracy with at most a handful of reprograms.
	if res.IdealAcc-odin.MinAcc > 0.01 {
		t.Errorf("Odin dropped %v accuracy", res.IdealAcc-odin.MinAcc)
	}
	if odin.Reprogs > 4 {
		t.Errorf("Odin reprogrammed %d times, want ≈ 1", odin.Reprogs)
	}
	// 8×4 without reprogramming degrades less than 16×16 without.
	if series["8×4 w/o reprog"].MinAcc <= noRep.MinAcc {
		t.Error("finer OUs should degrade less without reprogramming")
	}
}

func TestOverheadMatchesSectionVE(t *testing.T) {
	t.Parallel()
	res, err := Overhead(core.DefaultSystem())
	if err != nil {
		t.Fatal(err)
	}
	if res.OUControllerAreaMM2 != 0.005 {
		t.Errorf("controller area %v, paper: 0.005 mm²", res.OUControllerAreaMM2)
	}
	if res.OUControllerSharePc < 1.5 || res.OUControllerSharePc > 2.1 {
		t.Errorf("controller share %v%%, paper: 1.8%%", res.OUControllerSharePc)
	}
	if res.LearningAreaSharePc < 0.1 || res.LearningAreaSharePc > 0.3 {
		t.Errorf("learning share %v%%, paper: 0.2%%", res.LearningAreaSharePc)
	}
	if res.PredictLatencyPc != 0.9 {
		t.Errorf("latency penalty %v%%, paper: 0.9%%", res.PredictLatencyPc)
	}
	if res.BufferKB < 0.3 || res.BufferKB > 0.4 {
		t.Errorf("buffer %v KB, paper: 0.35 KB", res.BufferKB)
	}
	if res.EXOverRBRatio < 1.5 {
		t.Errorf("EX/RB ratio %v, paper: ≈3×", res.EXOverRBRatio)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "overhead analysis") {
		t.Error("render output malformed")
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	t.Parallel()
	// Smoke-render the cheap experiments end to end via their Run hooks.
	for _, id := range []string{"tab1", "tab2", "fig3", "fig4", "overhead"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(core.ControllerOptions{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		res.Render(&buf)
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestDataFuncsPresent(t *testing.T) {
	t.Parallel()
	for _, e := range All() {
		if e.Run == nil {
			t.Errorf("%s has no Run func", e.ID)
		}
	}
	// The result Run returns is also the -json payload: the cheap ones
	// must produce marshal-able results.
	for _, id := range []string{"tab1", "tab2", "fig3", "fig4"} {
		e, _ := ByID(id)
		res, err := e.Run(core.ControllerOptions{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("%s not JSON-marshalable: %v", id, err)
		}
	}
}
