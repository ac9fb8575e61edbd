// Package pim models the ReRAM processing-in-memory architecture of the
// paper's evaluation platform (§IV, Table I): 36 processing elements on a
// mesh NoC, 4 tiles per PE, 96 crossbars of 128×128 cells per tile, with
// reconfigurable 3–6 bit ADCs, eDRAM activation buffers, and the OU / online
// learning controllers whose overheads §V.E quantifies.
//
// It provides the layer→crossbar mapping (producing the Xbar_j, rows/cols
// occupancy figures the Eq. 1/2 models need), the Table I component
// inventory (areas), and the §V.E overhead model. Energy/latency unit
// constants here play the role NeuroSim plays for the authors.
package pim

import (
	"fmt"
	"math"

	"odin/internal/dnn"
	"odin/internal/ou"
)

// ArchConfig describes the PIM platform.
type ArchConfig struct {
	PEs              int     // processing elements (paper: 36, 6×6 mesh)
	TilesPerPE       int     // paper: 4
	CrossbarsPerTile int     // paper: 96
	CrossbarSize     int     // paper: 128
	BitsPerCell      int     // paper: 2
	WeightBits       int     // quantised weight precision (8)
	InputBits        int     // DAC-streamed input precision (8)
	ClockHz          float64 // paper: 1.2 GHz
	ADCsPerTile      int     // paper: 96
	ADCMinBits       int     // paper: 3
	ADCMaxBits       int     // paper: 6

	// Peripheral energy constants (joules) standing in for NeuroSim output.
	EDRAMAccessEnergy float64 // per 32-bit activation fetch
	DACEnergyPerBit   float64 // per input bit streamed
	BufferEnergy      float64 // OR/IR access per OU cycle
}

// DefaultArch returns the paper's Table I platform.
func DefaultArch() ArchConfig {
	return ArchConfig{
		PEs:              36,
		TilesPerPE:       4,
		CrossbarsPerTile: 96,
		CrossbarSize:     128,
		BitsPerCell:      2,
		WeightBits:       8,
		InputBits:        8,
		ClockHz:          1.2e9,
		ADCsPerTile:      96,
		ADCMinBits:       3,
		ADCMaxBits:       6,

		EDRAMAccessEnergy: 1.2e-13, // 0.12 pJ / access (64 KB eDRAM @32 nm)
		DACEnergyPerBit:   2.0e-15, // 2 fJ per streamed input bit
		BufferEnergy:      5.0e-14, // OR/IR register file access
	}
}

// Validate reports configuration errors.
func (a ArchConfig) Validate() error {
	switch {
	case a.PEs < 1 || a.TilesPerPE < 1 || a.CrossbarsPerTile < 1:
		return fmt.Errorf("pim: non-positive structural counts (%d PEs, %d tiles, %d xbars)",
			a.PEs, a.TilesPerPE, a.CrossbarsPerTile)
	case a.CrossbarSize < 4:
		return fmt.Errorf("pim: crossbar size %d below minimum OU dimension", a.CrossbarSize)
	case a.BitsPerCell < 1 || a.WeightBits < a.BitsPerCell:
		return fmt.Errorf("pim: weight bits %d / cell bits %d inconsistent", a.WeightBits, a.BitsPerCell)
	case a.ClockHz <= 0:
		return fmt.Errorf("pim: non-positive clock %v", a.ClockHz)
	case a.ADCMinBits < 1 || a.ADCMaxBits < a.ADCMinBits:
		return fmt.Errorf("pim: ADC precision range [%d,%d] invalid", a.ADCMinBits, a.ADCMaxBits)
	}
	return nil
}

// CellsPerWeight returns how many ReRAM cells store one weight.
func (a ArchConfig) CellsPerWeight() int {
	return (a.WeightBits + a.BitsPerCell - 1) / a.BitsPerCell
}

// TotalCrossbars returns the platform's crossbar count.
func (a ArchConfig) TotalCrossbars() int { return a.PEs * a.TilesPerPE * a.CrossbarsPerTile }

// CostModel returns the ou.CostModel for this platform: one clock cycle per
// column-bit of ADC sensing, a per-cell-bit conversion energy in the tens
// of femtojoules (ISAAC-class, NeuroSim-calibrated scale), and a few clock
// cycles plus register/control energy of fixed overhead per OU cycle.
func (a ArchConfig) CostModel() ou.CostModel {
	return ou.CostModel{
		LatencyUnit:  1.0 / a.ClockHz,
		EnergyUnit:   2e-14,
		CycleLatency: 1.0 / a.ClockHz,
		CycleEnergy:  5e-13,
	}
}

// Grid returns the discrete OU search space for this platform's crossbars.
func (a ArchConfig) Grid() ou.Grid { return ou.DefaultGrid(a.CrossbarSize) }

// LayerMapping is the placement of one neural layer onto crossbars.
type LayerMapping struct {
	RowsRequired int // im2col rows (kernel² × in-channels)
	ColsRequired int // out-channels × cells-per-weight
	RowTiles     int // crossbars along the row dimension
	ColTiles     int // crossbars along the column dimension
	Xbars        int // RowTiles × ColTiles (Xbar_j in Eq. 2)
	RowsUsed     int // occupied rows per crossbar (balanced split)
	ColsUsed     int // occupied columns per crossbar
	CellsTotal   int // programmed cells across all crossbars
	CellsNonZero int // cells holding non-zero weights (reprogramming cost basis)
}

// MapLayer places a layer onto this platform's crossbars using a balanced
// im2col tiling. Grouped convolutions place each channel group as an
// independent block; several groups pack into one crossbar when their
// blocks are small (the depthwise case — 9-row blocks would otherwise
// strand 93 % of every array).
func (a ArchConfig) MapLayer(l dnn.Layer) LayerMapping {
	groups := l.GroupCount()
	rows := l.RowsRequired() // per group
	cols := (l.OutChannels / groups) * a.CellsPerWeight()

	if groups == 1 {
		rowTiles := ceilDiv(rows, a.CrossbarSize)
		colTiles := ceilDiv(cols, a.CrossbarSize)
		m := LayerMapping{
			RowsRequired: rows,
			ColsRequired: cols,
			RowTiles:     rowTiles,
			ColTiles:     colTiles,
			Xbars:        rowTiles * colTiles,
			RowsUsed:     ceilDiv(rows, rowTiles),
			ColsUsed:     ceilDiv(cols, colTiles),
		}
		m.CellsTotal = rows * cols
		m.CellsNonZero = int(math.Round(float64(m.CellsTotal) * (1 - l.WeightSparsity)))
		return m
	}

	// Grouped path: groups are placed block-diagonally. Pack as many groups
	// per crossbar as both dimensions allow (at least one).
	perXbarRows := a.CrossbarSize / rows
	perXbarCols := a.CrossbarSize / cols
	groupsPerXbar := perXbarRows
	if perXbarCols < groupsPerXbar {
		groupsPerXbar = perXbarCols
	}
	if groupsPerXbar < 1 {
		groupsPerXbar = 1
	}
	xbars := ceilDiv(groups, groupsPerXbar)
	packed := ceilDiv(groups, xbars) // balanced groups per crossbar
	m := LayerMapping{
		RowsRequired: rows * groups,
		ColsRequired: cols * groups,
		RowTiles:     xbars,
		ColTiles:     1,
		Xbars:        xbars,
		RowsUsed:     minInt(rows*packed, a.CrossbarSize),
		ColsUsed:     minInt(cols*packed, a.CrossbarSize),
	}
	m.CellsTotal = rows * cols * groups
	m.CellsNonZero = int(math.Round(float64(m.CellsTotal) * (1 - l.WeightSparsity)))
	return m
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Work converts a mapping plus the layer's sparsity profile into the OU
// cycle model's workload description.
func (m LayerMapping) Work(profile ou.SparsityProfile) ou.LayerWork {
	return ou.LayerWork{
		Xbars:    m.Xbars,
		RowsUsed: m.RowsUsed,
		ColsUsed: m.ColsUsed,
		Sparsity: profile,
	}
}

// ModelMapping is the placement of a whole model.
type ModelMapping struct {
	Layers      []LayerMapping
	TotalXbars  int
	Utilization float64 // TotalXbars / platform crossbars; >1 ⇒ time-multiplexed
}

// MapModel places every layer. Placements exceeding the platform capacity
// are allowed (weights are then time-multiplexed, as on any finite
// accelerator) and surface as Utilization > 1.
func (a ArchConfig) MapModel(m *dnn.Model) ModelMapping {
	out := ModelMapping{Layers: make([]LayerMapping, len(m.Layers))}
	for i := range m.Layers {
		out.Layers[i] = a.MapLayer(m.Layers[i])
		out.TotalXbars += out.Layers[i].Xbars
	}
	out.Utilization = float64(out.TotalXbars) / float64(a.TotalCrossbars())
	return out
}

// PeripheralEnergy returns the non-Eq.2 energy of one inference pass of a
// layer: eDRAM activation fetches, DAC streaming, and OR/IR buffer traffic.
// It is small relative to ADC/crossbar energy but keeps totals honest.
func (a ArchConfig) PeripheralEnergy(l *dnn.Layer, m LayerMapping, cycles int) float64 {
	fetches := float64(l.InputVectors() * l.RowsRequired())
	dac := fetches * float64(a.InputBits) * a.DACEnergyPerBit
	edram := float64(l.InputVectors()) * a.EDRAMAccessEnergy * float64(m.RowTiles)
	buffers := float64(cycles*m.Xbars) * a.BufferEnergy
	return dac + edram + buffers
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
