package accuracy

import (
	"fmt"
	"math"
	"testing"

	"odin/internal/check"
	"odin/internal/ou"
	"odin/internal/reram"
)

// accCase is one generated surrogate scenario: a layer position, two OU
// sizes ordered component-wise comparisons can use, and two device ages.
type accCase struct {
	Layer, Total     int     // 0 <= Layer < Total
	R1, C1, R2, C2   int     // level indices on DefaultGrid(128)
	AgeExp1, AgeExp2 float64 // age = T0 · 10^AgeExp
}

func genAccCase() check.Gen[accCase] {
	return check.Gen[accCase]{
		Generate: func(t *check.T) accCase {
			total := 1 + t.Rng.Intn(16)
			return accCase{
				Layer: t.Rng.Intn(total), Total: total,
				R1: t.Rng.Intn(6), C1: t.Rng.Intn(6),
				R2: t.Rng.Intn(6), C2: t.Rng.Intn(6),
				AgeExp1: t.Rng.Float64() * 8,
				AgeExp2: t.Rng.Float64() * 8,
			}
		},
		Shrink: func(c accCase) []accCase {
			var out []accCase
			mutInt := func(v, toward int, set func(*accCase, int)) {
				for _, s := range check.ShrinkInt(v, toward) {
					m := c
					set(&m, s)
					out = append(out, m)
				}
			}
			if c.Total > 1 {
				m := c
				m.Total, m.Layer = 1, 0
				out = append(out, m)
			}
			mutInt(c.Layer, 0, func(m *accCase, v int) { m.Layer = v })
			mutInt(c.R1, 0, func(m *accCase, v int) { m.R1 = v })
			mutInt(c.C1, 0, func(m *accCase, v int) { m.C1 = v })
			mutInt(c.R2, 0, func(m *accCase, v int) { m.R2 = v })
			mutInt(c.C2, 0, func(m *accCase, v int) { m.C2 = v })
			for _, s := range check.ShrinkFloat(c.AgeExp1, 0) {
				m := c
				m.AgeExp1 = s
				out = append(out, m)
			}
			for _, s := range check.ShrinkFloat(c.AgeExp2, 0) {
				m := c
				m.AgeExp2 = s
				out = append(out, m)
			}
			return out
		},
	}
}

func propModel() (Model, ou.Grid) {
	return Default(reram.DefaultDeviceParams()), ou.DefaultGrid(128)
}

func age(m Model, exp float64) float64 { return m.Device.T0 * math.Pow(10, exp) }

// TestPropNFMonotoneInSizeAndAge pins the surrogate's central metamorphic
// law: the non-ideality factor never decreases when either OU dimension
// grows (longer IR-drop paths, more aggregate current) or when the device
// ages (conductance drift only accumulates).
func TestPropNFMonotoneInSizeAndAge(t *testing.T) {
	t.Parallel()
	m, grid := propModel()
	check.Run(t, genAccCase(), func(c accCase) error {
		t1 := age(m, c.AgeExp1)
		rLo, rHi := c.R1, c.R2
		if rLo > rHi {
			rLo, rHi = rHi, rLo
		}
		cLo, cHi := c.C1, c.C2
		if cLo > cHi {
			cLo, cHi = cHi, cLo
		}
		small, big := grid.SizeAt(rLo, cLo), grid.SizeAt(rHi, cHi)
		nfS, nfB := m.NF(c.Layer, c.Total, small, t1), m.NF(c.Layer, c.Total, big, t1)
		if nfS > nfB*(1+1e-12) {
			return fmt.Errorf("NF dropped with OU size: %v→%g vs %v→%g (layer %d/%d, t=%g)",
				small, nfS, big, nfB, c.Layer, c.Total, t1)
		}
		tLo, tHi := t1, age(m, c.AgeExp2)
		if tLo > tHi {
			tLo, tHi = tHi, tLo
		}
		nfY, nfO := m.NF(c.Layer, c.Total, small, tLo), m.NF(c.Layer, c.Total, small, tHi)
		if nfY > nfO*(1+1e-12) {
			return fmt.Errorf("NF dropped with age: t=%g→%g vs t=%g→%g (%v, layer %d/%d)",
				tLo, nfY, tHi, nfO, small, c.Layer, c.Total)
		}
		return nil
	})
}

// TestPropIRFractionAndLossBounded pins the range contracts: the IR-drop
// fraction is a proper fraction, the loss stays within [0, MaxLoss] ⊆ [0,1]
// and never decreases with drift age, and accuracy stays within [0, ideal].
func TestPropIRFractionAndLossBounded(t *testing.T) {
	t.Parallel()
	m, grid := propModel()
	check.Run(t, genAccCase(), func(c accCase) error {
		s := grid.SizeAt(c.R1, c.C1)
		if ir := m.IRFraction(s); !(ir > 0) || !(ir < 1) {
			return fmt.Errorf("IRFraction(%v) = %g outside (0,1)", s, ir)
		}
		sizes := []ou.Size{s, grid.SizeAt(c.R2, c.C2)}
		tLo, tHi := age(m, c.AgeExp1), age(m, c.AgeExp2)
		if tLo > tHi {
			tLo, tHi = tHi, tLo
		}
		lossLo, lossHi := m.Loss(sizes, tLo), m.Loss(sizes, tHi)
		for _, loss := range []float64{lossLo, lossHi} {
			if loss < 0 || loss > m.MaxLoss || m.MaxLoss > 1 {
				return fmt.Errorf("loss %g outside [0, MaxLoss=%g] ⊆ [0,1]", loss, m.MaxLoss)
			}
		}
		if lossLo > lossHi*(1+1e-12) {
			return fmt.Errorf("loss dropped with age: %g at t=%g vs %g at t=%g", lossLo, tLo, lossHi, tHi)
		}
		const ideal = 0.91
		if acc := m.Accuracy(ideal, sizes, tHi); acc < 0 || acc > ideal {
			return fmt.Errorf("accuracy %g outside [0, %g]", acc, ideal)
		}
		return nil
	})
}

// TestPropLossMonotoneInOUSize pins that growing any layer's OU
// component-wise never reduces the estimated loss (the worst-layer NF can
// only rise).
func TestPropLossMonotoneInOUSize(t *testing.T) {
	t.Parallel()
	m, grid := propModel()
	check.Run(t, genAccCase(), func(c accCase) error {
		rLo, rHi := c.R1, c.R2
		if rLo > rHi {
			rLo, rHi = rHi, rLo
		}
		cLo, cHi := c.C1, c.C2
		if cLo > cHi {
			cLo, cHi = cHi, cLo
		}
		t1 := age(m, c.AgeExp1)
		other := grid.SizeAt(c.Layer%6, c.Total%6) // an arbitrary second layer, held fixed
		small := []ou.Size{other, grid.SizeAt(rLo, cLo)}
		big := []ou.Size{other, grid.SizeAt(rHi, cHi)}
		ls, lb := m.Loss(small, t1), m.Loss(big, t1)
		if ls > lb*(1+1e-12) {
			return fmt.Errorf("loss dropped when layer 1 grew %v→%v: %g vs %g (t=%g)",
				small[1], big[1], ls, lb, t1)
		}
		return nil
	})
}

// TestPropSatisfiesConsistency pins the internal consistency of the
// constraint views: Satisfies ⟺ NF < η, and AnySatisfiable matches a
// brute-force scan of the grid.
func TestPropSatisfiesConsistency(t *testing.T) {
	t.Parallel()
	m, grid := propModel()
	check.Run(t, genAccCase(), func(c accCase) error {
		s := grid.SizeAt(c.R1, c.C1)
		t1 := age(m, c.AgeExp1)
		sat := m.Satisfies(c.Layer, c.Total, s, t1)
		if nf := m.NF(c.Layer, c.Total, s, t1); sat != (nf < m.Eta) {
			return fmt.Errorf("Satisfies=%v but NF=%g vs eta=%g (%v, layer %d/%d, t=%g)",
				sat, nf, m.Eta, s, c.Layer, c.Total, t1)
		}
		any := m.AnySatisfiable(c.Layer, c.Total, grid, t1)
		brute := false
		for _, gs := range grid.Sizes() {
			if m.Satisfies(c.Layer, c.Total, gs, t1) {
				brute = true
				break
			}
		}
		if any != brute {
			return fmt.Errorf("AnySatisfiable=%v but brute-force scan says %v (layer %d/%d, t=%g)",
				any, brute, c.Layer, c.Total, t1)
		}
		return nil
	})
}

// TestPropReprogramDeadlineInverse pins that the analytic deadline really is
// the η crossing: the configuration satisfies η just before the deadline and
// violates it just after; a deadline of t₀ means the size is infeasible even
// on a fresh device.
func TestPropReprogramDeadlineInverse(t *testing.T) {
	t.Parallel()
	m, grid := propModel()
	check.Run(t, genAccCase(), func(c accCase) error {
		s := grid.SizeAt(c.R1, c.C1)
		d := m.ReprogramDeadline(c.Layer, c.Total, s)
		if math.IsInf(d, 1) {
			return nil // drift-free device; unreachable with Table II defaults
		}
		if d < m.Device.T0 {
			return fmt.Errorf("deadline %g before initial programming t0=%g", d, m.Device.T0)
		}
		if d <= m.Device.T0*(1+1e-12) {
			if m.Satisfies(c.Layer, c.Total, s, m.Device.T0) {
				return fmt.Errorf("deadline t0 but %v satisfies eta on a fresh device (layer %d/%d)",
					s, c.Layer, c.Total)
			}
			return nil
		}
		if !m.Satisfies(c.Layer, c.Total, s, d*(1-1e-6)) {
			return fmt.Errorf("%v violates eta before its deadline %g (layer %d/%d)", s, d, c.Layer, c.Total)
		}
		if m.Satisfies(c.Layer, c.Total, s, d*(1+1e-6)) {
			return fmt.Errorf("%v still satisfies eta after its deadline %g (layer %d/%d)", s, d, c.Layer, c.Total)
		}
		return nil
	})
}
