package pim

import (
	"fmt"
	"testing"

	"odin/internal/check"
	"odin/internal/dnn"
)

// layerCase is a generated (valid) conv/FC layer for mapping properties.
type layerCase struct {
	FC        bool
	Kernel    int
	In, Out   int
	Spatial   int
	Stride    int
	Depthwise bool
	Sparsity  float64
}

func (lc layerCase) layer() dnn.Layer {
	l := dnn.Layer{
		Name:           "gen",
		Type:           dnn.Conv,
		KernelH:        lc.Kernel,
		KernelW:        lc.Kernel,
		InChannels:     lc.In,
		OutChannels:    lc.Out,
		InH:            lc.Spatial,
		InW:            lc.Spatial,
		Stride:         lc.Stride,
		WeightSparsity: lc.Sparsity,
	}
	if lc.FC {
		l.Type = dnn.FC
		l.KernelH, l.KernelW = 1, 1
		l.InH, l.InW = 1, 1
		l.Stride = 1
	} else if lc.Depthwise {
		l.OutChannels = l.InChannels
		l.Groups = l.InChannels
	}
	return l
}

func genLayerCase() check.Gen[layerCase] {
	return check.Gen[layerCase]{
		Generate: func(t *check.T) layerCase {
			return layerCase{
				FC:        t.Rng.Bernoulli(0.25),
				Kernel:    1 + t.Rng.Intn(5),
				In:        1 + t.Rng.Intn(96),
				Out:       1 + t.Rng.Intn(96),
				Spatial:   2 + t.Rng.Intn(31),
				Stride:    1 + t.Rng.Intn(2),
				Depthwise: t.Rng.Bernoulli(0.2),
				Sparsity:  t.Rng.Float64() * 0.9,
			}
		},
		Shrink: func(lc layerCase) []layerCase {
			var out []layerCase
			mutInt := func(v, toward int, set func(*layerCase, int)) {
				for _, c := range check.ShrinkInt(v, toward) {
					m := lc
					set(&m, c)
					out = append(out, m)
				}
			}
			mutInt(lc.Kernel, 1, func(m *layerCase, v int) { m.Kernel = v })
			mutInt(lc.In, 1, func(m *layerCase, v int) { m.In = v })
			mutInt(lc.Out, 1, func(m *layerCase, v int) { m.Out = v })
			mutInt(lc.Spatial, 2, func(m *layerCase, v int) { m.Spatial = v })
			if lc.Depthwise {
				m := lc
				m.Depthwise = false
				out = append(out, m)
			}
			if lc.Sparsity > 0 {
				m := lc
				m.Sparsity = 0
				out = append(out, m)
			}
			return out
		},
	}
}

// TestPropMapLayerInvariants pins the structural contract of the
// layer→crossbar mapping for any valid layer: occupancy fits the crossbar,
// tile bookkeeping is consistent, the placement covers the im2col
// requirement, and cell accounting never exceeds the total.
func TestPropMapLayerInvariants(t *testing.T) {
	t.Parallel()
	arch := DefaultArch()
	check.Run(t, genLayerCase(), func(lc layerCase) error {
		l := lc.layer()
		if err := l.Validate(); err != nil {
			return nil // generator corner the dnn layer model rejects: vacuous
		}
		m := arch.MapLayer(l)
		if m.Xbars < 1 || m.RowTiles < 1 || m.ColTiles < 1 {
			return fmt.Errorf("non-positive tiling %+v", m)
		}
		if m.Xbars != m.RowTiles*m.ColTiles {
			return fmt.Errorf("Xbars %d != RowTiles %d · ColTiles %d", m.Xbars, m.RowTiles, m.ColTiles)
		}
		if m.RowsUsed < 1 || m.RowsUsed > arch.CrossbarSize {
			return fmt.Errorf("RowsUsed %d outside [1,%d]", m.RowsUsed, arch.CrossbarSize)
		}
		if m.ColsUsed < 1 || m.ColsUsed > arch.CrossbarSize {
			return fmt.Errorf("ColsUsed %d outside [1,%d]", m.ColsUsed, arch.CrossbarSize)
		}
		if l.GroupCount() == 1 {
			if m.RowsUsed*m.RowTiles < m.RowsRequired {
				return fmt.Errorf("row placement %d·%d covers less than required %d",
					m.RowsUsed, m.RowTiles, m.RowsRequired)
			}
			if m.ColsUsed*m.ColTiles < m.ColsRequired {
				return fmt.Errorf("column placement %d·%d covers less than required %d",
					m.ColsUsed, m.ColTiles, m.ColsRequired)
			}
		}
		if m.CellsNonZero < 0 || m.CellsNonZero > m.CellsTotal {
			return fmt.Errorf("non-zero cells %d outside [0, total %d]", m.CellsNonZero, m.CellsTotal)
		}
		if want := l.Weights() * arch.CellsPerWeight(); m.CellsTotal != want {
			return fmt.Errorf("CellsTotal %d != weights·cellsPerWeight %d", m.CellsTotal, want)
		}
		return nil
	})
}

// TestPropPeripheralEnergyMonotoneInCycles pins that the non-Eq.2 energy is
// positive and non-decreasing in the OU cycle count (buffer traffic grows
// with cycles; DAC/eDRAM terms are cycle-independent).
func TestPropPeripheralEnergyMonotoneInCycles(t *testing.T) {
	t.Parallel()
	arch := DefaultArch()
	type cyc struct {
		LC     layerCase
		C1, C2 int
	}
	g := check.Gen[cyc]{
		Generate: func(t *check.T) cyc {
			return cyc{LC: genLayerCase().Generate(t), C1: 1 + t.Rng.Intn(4096), C2: 1 + t.Rng.Intn(4096)}
		},
		Shrink: func(c cyc) []cyc {
			var out []cyc
			for _, v := range check.ShrinkInt(c.C1, 1) {
				out = append(out, cyc{LC: c.LC, C1: v, C2: c.C2})
			}
			for _, v := range check.ShrinkInt(c.C2, 1) {
				out = append(out, cyc{LC: c.LC, C1: c.C1, C2: v})
			}
			return out
		},
	}
	check.Run(t, g, func(c cyc) error {
		l := c.LC.layer()
		if err := l.Validate(); err != nil {
			return nil
		}
		m := arch.MapLayer(l)
		lo, hi := c.C1, c.C2
		if lo > hi {
			lo, hi = hi, lo
		}
		el, eh := arch.PeripheralEnergy(&l, m, lo), arch.PeripheralEnergy(&l, m, hi)
		if !(el > 0) {
			return fmt.Errorf("peripheral energy %g not positive at %d cycles", el, lo)
		}
		if el > eh*(1+1e-12) {
			return fmt.Errorf("peripheral energy dropped with cycles: %g J at %d vs %g J at %d", el, lo, eh, hi)
		}
		return nil
	})
}
