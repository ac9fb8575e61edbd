package pim

import (
	"math"
	"testing"
	"testing/quick"

	"odin/internal/dnn"
	"odin/internal/sparsity"
)

func TestDefaultArchValid(t *testing.T) {
	t.Parallel()
	if err := DefaultArch().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	t.Parallel()
	mutations := []func(*ArchConfig){
		func(a *ArchConfig) { a.PEs = 0 },
		func(a *ArchConfig) { a.CrossbarSize = 2 },
		func(a *ArchConfig) { a.BitsPerCell = 0 },
		func(a *ArchConfig) { a.WeightBits = 1 },
		func(a *ArchConfig) { a.ClockHz = 0 },
		func(a *ArchConfig) { a.ADCMaxBits = 1 },
	}
	for i, mutate := range mutations {
		a := DefaultArch()
		mutate(&a)
		if err := a.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestStructuralCounts(t *testing.T) {
	t.Parallel()
	a := DefaultArch()
	if a.TotalCrossbars() != 36*4*96 {
		t.Fatalf("TotalCrossbars = %d", a.TotalCrossbars())
	}
	if a.CellsPerWeight() != 4 { // 8-bit weights / 2 bits per cell
		t.Fatalf("CellsPerWeight = %d", a.CellsPerWeight())
	}
}

func TestMapLayerSmall(t *testing.T) {
	t.Parallel()
	a := DefaultArch()
	// 3×3×64 → 128: rows 576, cols 512.
	l := dnn.Layer{Name: "conv", Type: dnn.Conv, KernelH: 3, KernelW: 3,
		InChannels: 64, OutChannels: 128, InH: 16, InW: 16, Stride: 1}
	m := a.MapLayer(l)
	if m.RowsRequired != 576 || m.ColsRequired != 512 {
		t.Fatalf("requirements %d×%d", m.RowsRequired, m.ColsRequired)
	}
	if m.RowTiles != 5 || m.ColTiles != 4 || m.Xbars != 20 {
		t.Fatalf("tiling %d×%d = %d xbars", m.RowTiles, m.ColTiles, m.Xbars)
	}
	// Balanced split: ceil(576/5)=116 rows, ceil(512/4)=128 cols used.
	if m.RowsUsed != 116 || m.ColsUsed != 128 {
		t.Fatalf("occupancy %d×%d", m.RowsUsed, m.ColsUsed)
	}
	if m.CellsTotal != 576*512 {
		t.Fatalf("CellsTotal = %d", m.CellsTotal)
	}
}

func TestMapLayerTiny(t *testing.T) {
	t.Parallel()
	a := DefaultArch()
	l := dnn.Layer{Name: "head", Type: dnn.FC, KernelH: 1, KernelW: 1,
		InChannels: 64, OutChannels: 10, InH: 1, InW: 1, Stride: 1}
	m := a.MapLayer(l)
	if m.Xbars != 1 || m.RowsUsed != 64 || m.ColsUsed != 40 {
		t.Fatalf("tiny layer mapping %+v", m)
	}
}

func TestMapLayerNonZeroCells(t *testing.T) {
	t.Parallel()
	a := DefaultArch()
	l := dnn.Layer{Name: "x", Type: dnn.Conv, KernelH: 1, KernelW: 1,
		InChannels: 128, OutChannels: 32, InH: 8, InW: 8, Stride: 1,
		WeightSparsity: 0.75}
	m := a.MapLayer(l)
	if m.CellsNonZero != m.CellsTotal/4 {
		t.Fatalf("CellsNonZero = %d, want %d", m.CellsNonZero, m.CellsTotal/4)
	}
}

// Property: the balanced tiling conserves work — every required row/column
// fits, and occupancy never exceeds the crossbar.
func TestMappingConservationProperty(t *testing.T) {
	t.Parallel()
	a := DefaultArch()
	f := func(kRaw, inRaw, outRaw uint16) bool {
		k := int(kRaw%7) + 1
		in := int(inRaw%2048) + 1
		out := int(outRaw%4096) + 1
		l := dnn.Layer{Name: "p", Type: dnn.Conv, KernelH: k, KernelW: k,
			InChannels: in, OutChannels: out, InH: 8, InW: 8, Stride: 1}
		m := a.MapLayer(l)
		if m.RowsUsed > a.CrossbarSize || m.ColsUsed > a.CrossbarSize {
			return false
		}
		// Capacity across tiles covers the requirement.
		return m.RowsUsed*m.RowTiles >= m.RowsRequired &&
			m.ColsUsed*m.ColTiles >= m.ColsRequired &&
			m.Xbars == m.RowTiles*m.ColTiles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapModelUtilization(t *testing.T) {
	t.Parallel()
	a := DefaultArch()
	m := dnn.NewResNet18()
	mm := a.MapModel(m)
	if len(mm.Layers) != len(m.Layers) {
		t.Fatalf("mapped %d layers, want %d", len(mm.Layers), len(m.Layers))
	}
	sum := 0
	for _, lm := range mm.Layers {
		sum += lm.Xbars
	}
	if sum != mm.TotalXbars {
		t.Fatalf("TotalXbars %d != sum %d", mm.TotalXbars, sum)
	}
	if mm.Utilization <= 0 {
		t.Fatalf("utilization %v", mm.Utilization)
	}
}

func TestWorkBridgesToOUModel(t *testing.T) {
	t.Parallel()
	a := DefaultArch()
	model := dnn.NewVGG11()
	if err := sparsity.Prune(model, sparsity.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	l := model.Layers[4]
	m := a.MapLayer(l)
	w := m.Work(sparsity.ProfileFor(l, sparsity.DefaultConfig()))
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	cm := a.CostModel()
	g := a.Grid()
	cost := cm.Evaluate(w, g.SizeAt(2, 2))
	if cost.Energy <= 0 || cost.Latency <= 0 {
		t.Fatalf("degenerate cost %+v", cost)
	}
	// A sparse layer must need fewer cycles than its dense twin.
	dense := w
	dense.Sparsity = nil
	if w.Cycles(g.SizeAt(2, 2)) >= dense.Cycles(g.SizeAt(2, 2)) {
		t.Fatal("sparsity profile did not reduce cycles")
	}
}

func TestTileAreaMatchesTableI(t *testing.T) {
	t.Parallel()
	a := DefaultArch()
	if got := a.TileArea(); math.Abs(got-0.2822) > 1e-9 {
		t.Fatalf("tile area %v, want 0.2822 (paper: 0.28 mm²)", got)
	}
	if n := len(a.TileComponents()); n != 9 {
		t.Fatalf("Table I has %d rows, want 9", n)
	}
}

func TestSystemArea(t *testing.T) {
	t.Parallel()
	a := DefaultArch()
	want := a.TileArea() * 4 * 36
	if got := a.SystemArea(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("system area %v, want %v", got, want)
	}
}

func TestComponentAreasScaleWithStructure(t *testing.T) {
	t.Parallel()
	small := DefaultArch()
	small.CrossbarSize = 64
	var memDefault, memSmall float64
	for _, c := range DefaultArch().TileComponents() {
		if c.Name == "Memristor array" {
			memDefault = c.Area
		}
	}
	for _, c := range small.TileComponents() {
		if c.Name == "Memristor array" {
			memSmall = c.Area
		}
	}
	if math.Abs(memSmall-memDefault/4) > 1e-12 {
		t.Fatalf("memristor area did not scale with cell count: %v vs %v/4", memSmall, memDefault)
	}
}

func TestOverheadModelMatchesPaperScale(t *testing.T) {
	t.Parallel()
	a := DefaultArch()
	// The paper's policy: 4 inputs, two 6-way heads; our default adds a
	// small hidden trunk — use a representative 150-parameter policy.
	o := a.OverheadModel(150, 50, 100)
	if o.OUControllerArea != 0.005 {
		t.Fatalf("controller area %v", o.OUControllerArea)
	}
	// Paper: 1.8% of the 0.28 mm² tile.
	if o.OUControllerShare < 0.015 || o.OUControllerShare > 0.02 {
		t.Fatalf("controller share %v, want ≈ 0.018", o.OUControllerShare)
	}
	// Paper: 0.2% of the 36-PE system.
	if o.LearningAreaShare < 0.001 || o.LearningAreaShare > 0.003 {
		t.Fatalf("learning share %v, want ≈ 0.002", o.LearningAreaShare)
	}
	// Paper: 0.35 KB for 50 examples.
	if o.TrainingBufferKB < 0.3 || o.TrainingBufferKB > 0.4 {
		t.Fatalf("buffer KB %v, want ≈ 0.35", o.TrainingBufferKB)
	}
	// Paper: 0.14 mW prediction power for the tiny policy.
	if o.PredictPower < 0.05e-3 || o.PredictPower > 0.5e-3 {
		t.Errorf("prediction power %v W, want ≈ 0.14 mW", o.PredictPower)
	}
	// Power scales with the policy size (the ablation's premise).
	if big := a.OverheadModel(300, 50, 100); big.PredictPower <= o.PredictPower {
		t.Error("prediction power should grow with policy parameters")
	}
	if o.UpdateEnergy <= 0 {
		t.Fatal("update energy must be positive")
	}
	if o.PredictLatencyPct != 0.9 {
		t.Fatalf("latency penalty %v", o.PredictLatencyPct)
	}
}

func TestPeripheralEnergyPositiveAndSmall(t *testing.T) {
	t.Parallel()
	a := DefaultArch()
	model := dnn.NewVGG11()
	l := model.Layers[2]
	m := a.MapLayer(l)
	w := m.Work(nil)
	cm := a.CostModel()
	s := a.Grid().SizeAt(2, 2)
	cycles := w.Cycles(s)
	pe := a.PeripheralEnergy(&l, m, cycles)
	core := cm.Energy(w, s)
	if pe <= 0 {
		t.Fatal("peripheral energy must be positive")
	}
	if pe > 10*core {
		t.Fatalf("peripheral energy %v implausibly dominates core %v", pe, core)
	}
}

func TestMapLayerDepthwisePacksGroups(t *testing.T) {
	t.Parallel()
	a := DefaultArch()
	// 96-channel depthwise 3×3: 96 groups of 9×(1·4) cells.
	l := dnn.Layer{Name: "dw", Type: dnn.Conv, KernelH: 3, KernelW: 3,
		InChannels: 96, OutChannels: 96, InH: 16, InW: 16, Stride: 1, Groups: 96}
	m := a.MapLayer(l)
	// 9 rows per group → 14 groups fit the 128-row crossbar → 7 arrays.
	if m.Xbars != 7 {
		t.Fatalf("depthwise crossbars = %d, want 7", m.Xbars)
	}
	if m.CellsTotal != 9*4*96 {
		t.Fatalf("cells = %d, want %d", m.CellsTotal, 9*4*96)
	}
	if m.RowsUsed > a.CrossbarSize || m.ColsUsed > a.CrossbarSize {
		t.Fatalf("occupancy %dx%d exceeds crossbar", m.RowsUsed, m.ColsUsed)
	}
}

func TestMapLayerGroupedConservesCells(t *testing.T) {
	t.Parallel()
	a := DefaultArch()
	for _, groups := range []int{1, 2, 4, 8} {
		l := dnn.Layer{Name: "g", Type: dnn.Conv, KernelH: 1, KernelW: 1,
			InChannels: 64, OutChannels: 128, InH: 8, InW: 8, Stride: 1, Groups: groups}
		m := a.MapLayer(l)
		want := l.Weights() * a.CellsPerWeight()
		if m.CellsTotal != want {
			t.Errorf("groups=%d cells %d, want %d", groups, m.CellsTotal, want)
		}
		if m.Xbars < 1 {
			t.Errorf("groups=%d no crossbars", groups)
		}
	}
}

func TestMapLayerHugeGroupBlocks(t *testing.T) {
	t.Parallel()
	// Groups whose blocks exceed one crossbar: 2 groups of 256×256 cells
	// fall back to one-group-per-crossbar granularity.
	a := DefaultArch()
	l := dnn.Layer{Name: "big", Type: dnn.Conv, KernelH: 1, KernelW: 1,
		InChannels: 512, OutChannels: 128, InH: 4, InW: 4, Stride: 1, Groups: 2}
	m := a.MapLayer(l)
	if m.Xbars < 2 {
		t.Fatalf("big grouped layer crossbars = %d, want ≥ 2", m.Xbars)
	}
	if m.RowsUsed > a.CrossbarSize || m.ColsUsed > a.CrossbarSize {
		t.Fatalf("occupancy %dx%d exceeds crossbar", m.RowsUsed, m.ColsUsed)
	}
}
