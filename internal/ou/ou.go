// Package ou implements Operation-Unit level modelling: the discrete OU size
// grid Odin's policy chooses from, the OU compute-cycle counting that turns
// layer shape + sparsity into work, and the paper's analytical latency and
// energy models (Eq. 1 and Eq. 2) with their energy-delay product.
//
// An Operation Unit is the R×C sub-array of a crossbar activated in one
// compute cycle. The paper constrains R, C to powers of two 2^L with
// L ∈ [2,7] (i.e. 4..128) clipped to the crossbar dimension, giving six
// discrete levels per axis on a 128×128 array.
package ou

import (
	"fmt"
	"math"
)

// Size is an OU configuration: R concurrently activated wordlines (rows) by
// C concurrently activated bitlines (columns).
type Size struct {
	R, C int
}

// Product returns R·C, the figure the paper plots layer-wise OU size as.
func (s Size) Product() int { return s.R * s.C }

// String renders the size the way the paper writes it, e.g. "16×8".
func (s Size) String() string { return fmt.Sprintf("%d×%d", s.R, s.C) }

// Valid reports whether both dimensions are positive.
func (s Size) Valid() bool { return s.R >= 1 && s.C >= 1 }

// Grid is the discrete OU search space: power-of-two sizes 2^L for
// L ∈ [MinLevel, MaxLevel] on each axis.
type Grid struct {
	MinLevel int // paper: 2  (OU dimension 4)
	MaxLevel int // paper: 7  (OU dimension 128), reduced for smaller crossbars
}

// DefaultGrid returns the paper's grid for a crossbar of the given size:
// levels 2..min(7, log2(size)). It panics if the crossbar is smaller than
// the minimum OU dimension (4).
func DefaultGrid(crossbarSize int) Grid {
	maxLevel := int(math.Floor(math.Log2(float64(crossbarSize))))
	if maxLevel < 2 {
		panic(fmt.Sprintf("ou: crossbar size %d below minimum OU dimension 4", crossbarSize))
	}
	if maxLevel > 7 {
		maxLevel = 7
	}
	return Grid{MinLevel: 2, MaxLevel: maxLevel}
}

// Levels returns the number of discrete values per axis (paper: 6).
func (g Grid) Levels() int { return g.MaxLevel - g.MinLevel + 1 }

// SizeAt returns the Size for zero-based level indices (rIdx, cIdx).
func (g Grid) SizeAt(rIdx, cIdx int) Size {
	if rIdx < 0 || rIdx >= g.Levels() || cIdx < 0 || cIdx >= g.Levels() {
		panic(fmt.Sprintf("ou: level index (%d,%d) out of range [0,%d)", rIdx, cIdx, g.Levels()))
	}
	return Size{R: 1 << (g.MinLevel + rIdx), C: 1 << (g.MinLevel + cIdx)}
}

// IndexOf returns the level indices for a grid-aligned size, or ok=false if
// either dimension is not a power of two within the grid.
func (g Grid) IndexOf(s Size) (rIdx, cIdx int, ok bool) {
	rIdx, okR := g.levelIndex(s.R)
	cIdx, okC := g.levelIndex(s.C)
	return rIdx, cIdx, okR && okC
}

func (g Grid) levelIndex(dim int) (int, bool) {
	for idx := 0; idx < g.Levels(); idx++ {
		if dim == 1<<(g.MinLevel+idx) {
			return idx, true
		}
	}
	return 0, false
}

// Sizes enumerates every size in the grid, row-major by (rIdx, cIdx).
func (g Grid) Sizes() []Size {
	n := g.Levels()
	out := make([]Size, 0, n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			out = append(out, g.SizeAt(r, c))
		}
	}
	return out
}

// NearestIndex returns the level index whose dimension is closest to dim
// (used to snap non-grid baselines such as 9×8 onto the learnable grid when
// needed). The grid is square by construction — a single
// [MinLevel, MaxLevel] range shared by both axes — so NearestIndex is
// axis-agnostic: callers snapping a Size apply it to R and C independently
// (search.ResourceBounded, search.ClampFeasible) and cannot mix up axes.
// If Grid ever grows per-axis level ranges, this must split into
// NearestRowIndex/NearestColIndex and those call sites must be revisited.
func (g Grid) NearestIndex(dim int) int {
	best, bestDist := 0, math.MaxFloat64
	for idx := 0; idx < g.Levels(); idx++ {
		d := math.Abs(float64(dim - 1<<(g.MinLevel+idx)))
		if d < bestDist {
			best, bestDist = idx, d
		}
	}
	return best
}

// SparsityProfile describes how a layer's zero weights are laid out across a
// crossbar from the OU cycle counter's point of view. Implemented by
// internal/sparsity; defined here on the consumer side.
type SparsityProfile interface {
	// SegmentZeroFraction returns the probability that a row segment of the
	// given width (the OU column span) contains only zero weights and can be
	// skipped entirely. Must be in [0,1] and non-increasing in width.
	SegmentZeroFraction(width int) float64
}

// DenseProfile is a SparsityProfile for a layer with no exploitable zeros.
type DenseProfile struct{}

// SegmentZeroFraction always returns 0 for a dense layer.
func (DenseProfile) SegmentZeroFraction(int) float64 { return 0 }

// LayerWork is the per-crossbar workload of one neural layer after mapping
// (produced by internal/pim): how many crossbars hold the layer and how much
// of each is occupied.
type LayerWork struct {
	Xbars    int // number of crossbars the layer maps onto (Xbar_j)
	RowsUsed int // occupied rows per crossbar (averaged over the layer's crossbars)
	ColsUsed int // occupied columns per crossbar
	Sparsity SparsityProfile
}

// Validate reports whether the workload is well-formed.
func (w LayerWork) Validate() error {
	if w.Xbars < 1 {
		return fmt.Errorf("ou: workload needs at least one crossbar, got %d", w.Xbars)
	}
	if w.RowsUsed < 1 || w.ColsUsed < 1 {
		return fmt.Errorf("ou: workload occupancy %dx%d must be positive", w.RowsUsed, w.ColsUsed)
	}
	return nil
}

func (w LayerWork) profile() SparsityProfile {
	if w.Sparsity == nil {
		return DenseProfile{}
	}
	return w.Sparsity
}

// Cycles returns OU_j: the number of OU compute cycles needed to process one
// crossbar of the layer with OU size s. Row segments that are entirely zero
// are skipped (the sparsity exploitation OUs enable); the survivors are
// packed into ceil(activeSegments/R) row steps per column group.
func (w LayerWork) Cycles(s Size) int {
	if !s.Valid() {
		panic(fmt.Sprintf("ou: invalid OU size %v", s))
	}
	if err := w.Validate(); err != nil {
		panic(fmt.Sprintf("ou: %v", err))
	}
	colGroups := ceilDiv(w.ColsUsed, s.C)
	zeroFrac := w.profile().SegmentZeroFraction(min(s.C, w.ColsUsed))
	active := float64(w.RowsUsed) * (1 - zeroFrac)
	activeSegments := int(math.Ceil(active))
	if activeSegments < 1 {
		activeSegments = 1 // at least one cycle: control still touches the crossbar
	}
	rowSteps := ceilDiv(activeSegments, s.R)
	return rowSteps * colGroups
}

// TotalCycles returns the layer's OU cycles summed over all its crossbars.
func (w LayerWork) TotalCycles(s Size) int { return w.Xbars * w.Cycles(s) }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// CostModel converts OU cycles into latency, energy and EDP following the
// paper's analytical forms:
//
//	Latency ≅ C · log2(R) · OU_j            (Eq. 1)
//	Energy  ≅ Xbar · log2(R) · R · C · OU_j (Eq. 2)
//
// plus a fixed per-OU-cycle overhead (OU controller sequencing, S&H
// settling, input/output register access) that every real pipeline pays.
// Without it the model degenerates: arbitrarily fine OUs become free, which
// neither the paper's figures nor hardware support. LatencyUnit and
// EnergyUnit are the technology constants the paper obtains from NeuroSim;
// see internal/pim for their derivation from Table I.
type CostModel struct {
	LatencyUnit float64 // seconds per (column · ADC-bit) of sensing
	EnergyUnit  float64 // joules per (cell · ADC-bit) of MVM+conversion

	CycleLatency float64 // seconds of fixed control/settle time per OU cycle
	CycleEnergy  float64 // joules of fixed control/buffer energy per OU cycle per crossbar
}

// DefaultCostModel returns constants derived from the Table I tile
// (1.2 GHz, 96 reconfigurable 3–6 bit ADCs): one ADC bit-slice resolves in
// one core cycle, conversion energy per cell-bit is in the tens of
// femtojoules (ISAAC-class), and each OU cycle pays a few clock cycles of
// sequencing plus ~2 pJ of register/control energy.
func DefaultCostModel() CostModel {
	return CostModel{
		LatencyUnit:  1.0 / 1.2e9, // one 1.2 GHz cycle per column-bit
		EnergyUnit:   2e-14,       // 20 fJ per cell-bit
		CycleLatency: 1.0 / 1.2e9, // 1 cycle of control/settle per OU cycle
		CycleEnergy:  5e-13,       // 0.5 pJ control + IR/OR access per OU cycle
	}
}

// adcBits is the Eq. 1/2 precision term log2(R). The physical ADC clamps to
// [3,6] bits (Table I); the analytic model keeps the paper's literal log2
// so that R=4 and R=8 remain distinguishable, as in Fig. 4.
func adcBits(r int) float64 { return math.Log2(float64(r)) }

// Latency returns the layer latency in seconds for OU size s (Eq. 1 plus
// the per-cycle control overhead). Crossbars of a layer operate in
// parallel, so latency does not scale with Xbar_j.
func (m CostModel) Latency(w LayerWork, s Size) float64 { return m.Evaluate(w, s).Latency }

// Energy returns the layer inference energy in joules for OU size s (Eq. 2
// plus the per-cycle control overhead).
func (m CostModel) Energy(w LayerWork, s Size) float64 { return m.Evaluate(w, s).Energy }

// EDP returns Energy·Latency for the layer at OU size s, counting the OU
// cycles once.
func (m CostModel) EDP(w LayerWork, s Size) float64 { return m.Evaluate(w, s).EDP() }

// Cost bundles the three metrics for one evaluation.
type Cost struct {
	Energy  float64 // J
	Latency float64 // s
	Cycles  int     // OU cycles per crossbar
}

// EDP returns the energy-delay product of the bundled cost.
func (c Cost) EDP() float64 { return c.Energy * c.Latency }

// Evaluate computes all metrics at once (one cycle count shared by both):
// the only place the Eq. 1 and Eq. 2 expressions are written.
func (m CostModel) Evaluate(w LayerWork, s Size) Cost {
	cycles := w.Cycles(s)
	fc := float64(cycles)
	return Cost{
		Energy:  float64(w.Xbars) * (adcBits(s.R)*float64(s.R)*float64(s.C)*m.EnergyUnit + m.CycleEnergy) * fc,
		Latency: (float64(s.C)*adcBits(s.R)*m.LatencyUnit + m.CycleLatency) * fc,
		Cycles:  cycles,
	}
}
