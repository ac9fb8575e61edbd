package accuracy

import (
	"math"
	"testing"
	"testing/quick"

	"odin/internal/ou"
	"odin/internal/reram"
)

func defaultModel() Model { return Default(reram.DefaultDeviceParams()) }

func TestDefaultValid(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	t.Parallel()
	mutations := []func(*Model){
		func(m *Model) { m.Eta = 0 },
		func(m *Model) { m.Eta = 1 },
		func(m *Model) { m.LossScale = 0 },
		func(m *Model) { m.LossPower = 0 },
		func(m *Model) { m.MaxLoss = 1.5 },
		func(m *Model) { m.Sens.WMin = m.Sens.WMax + 1 },
		func(m *Model) { m.Sens.WMax = 0 },
		func(m *Model) { m.Sens.Decay = -1 },
		func(m *Model) { m.Device.GOn = 0 },
	}
	for i, mutate := range mutations {
		m := defaultModel()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSensitivityWeightMonotoneDecreasing(t *testing.T) {
	t.Parallel()
	s := DefaultSensitivity()
	const total = 20
	prev := math.Inf(1)
	for j := 0; j < total; j++ {
		w := s.Weight(j, total)
		if w >= prev {
			t.Fatalf("weight not decreasing at layer %d: %v >= %v", j, w, prev)
		}
		if w < s.WMin || w > s.WMax {
			t.Fatalf("weight %v outside [%v,%v]", w, s.WMin, s.WMax)
		}
		prev = w
	}
	if s.Weight(0, total) != s.WMax {
		t.Fatalf("first layer weight %v, want WMax", s.Weight(0, total))
	}
}

func TestSensitivitySingleLayer(t *testing.T) {
	t.Parallel()
	s := DefaultSensitivity()
	if s.Weight(0, 1) != s.WMax {
		t.Fatal("single-layer network should use WMax")
	}
}

func TestSensitivityPanics(t *testing.T) {
	t.Parallel()
	s := DefaultSensitivity()
	for _, fn := range []func(){
		func() { s.Weight(-1, 5) },
		func() { s.Weight(5, 5) },
		func() { s.Weight(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestIRFractionMatchesEq4ForSmallOUs(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	// For small OUs the area factor is negligible and IRFraction must track
	// ΔG/G_ON from reram's literal Eq. 4 closely.
	for _, s := range []ou.Size{{R: 4, C: 4}, {R: 8, C: 4}, {R: 16, C: 16}} {
		want := m.Device.NonIdealityFraction(s.R, s.C, m.Device.T0)
		if got := m.IRFraction(s); math.Abs(got-want)/want > 0.07 {
			t.Fatalf("IRFraction(%v) = %v, want ≈ Eq.4 value %v", s, got, want)
		}
	}
	// For the full crossbar the area term dominates: well above Eq. 4.
	eq4 := m.Device.NonIdealityFraction(128, 128, m.Device.T0)
	if got := m.IRFraction(ou.Size{R: 128, C: 128}); got < 2*eq4 {
		t.Fatalf("area term missing: IRFraction(128×128) = %v vs Eq.4 %v", got, eq4)
	}
}

func TestIRFractionMonotone(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	prev := -1.0
	for _, sum := range []ou.Size{{R: 4, C: 4}, {R: 8, C: 4}, {R: 8, C: 8}, {R: 16, C: 16}, {R: 64, C: 64}, {R: 128, C: 128}} {
		f := m.IRFraction(sum)
		if f <= prev {
			t.Fatalf("IRFraction not increasing at %v", sum)
		}
		prev = f
	}
}

func TestAmplification(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	if a := m.Amplification(0.5); a != 1 {
		t.Fatalf("amplification before t0 = %v, want 1", a)
	}
	if a := m.Amplification(1e5); math.Abs(a-10) > 1e-9 {
		t.Fatalf("A(1e5) = %v, want 10 (10^(5·0.2))", a)
	}
}

func TestNFComposition(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	s := ou.Size{R: 16, C: 16}
	want := m.Sens.Weight(2, 10) * m.IRFraction(s) * m.Amplification(1e4)
	if got := m.NF(2, 10, s, 1e4); math.Abs(got-want) > 1e-15 {
		t.Fatalf("NF = %v, want %v", got, want)
	}
}

func TestSatisfiesThreshold(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	// At t₀ every small-to-moderate grid size passes for a mid-depth layer,
	// while the largest-area OUs (full crossbar and its 64×128 neighbours)
	// are already infeasible — as in the paper's figures, where 128×128
	// never appears.
	g := ou.DefaultGrid(128)
	for _, s := range g.Sizes() {
		sat := m.Satisfies(10, 20, s, m.Device.T0)
		if s.Product() <= 2048 && !sat {
			t.Fatalf("size %v should satisfy η at t0 for mid layer", s)
		}
		if s.Product() >= 128*128 && sat {
			t.Fatalf("full-crossbar OU %v should violate η even at t0", s)
		}
	}
	// At large t even the smallest size eventually fails.
	if m.Satisfies(0, 20, g.SizeAt(0, 0), 1e12) {
		t.Fatal("4×4 should violate η far past the horizon")
	}
}

func TestEarlyLayersTighter(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	s := ou.Size{R: 32, C: 32}
	const tt = 1e6
	if m.NF(0, 20, s, tt) <= m.NF(19, 20, s, tt) {
		t.Fatal("first layer must see higher non-ideality than last")
	}
}

func TestAnySatisfiableUsesSmallestSize(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	g := ou.DefaultGrid(128)
	// Find a time where 4×4 passes but 8×8 fails for layer 0 — possible by
	// monotonicity; AnySatisfiable must still be true there.
	deadline44 := m.ReprogramDeadline(0, 20, g.SizeAt(0, 0))
	deadline88 := m.ReprogramDeadline(0, 20, ou.Size{R: 8, C: 8})
	if !(deadline88 < deadline44) {
		t.Fatal("larger OU should violate earlier")
	}
	mid := math.Sqrt(deadline88 * deadline44)
	if !m.AnySatisfiable(0, 20, g, mid) {
		t.Fatal("4×4 should still satisfy between the deadlines")
	}
	if m.AnySatisfiable(0, 20, g, deadline44*2) {
		t.Fatal("nothing should satisfy past the 4×4 deadline")
	}
}

func TestReprogramDeadlineInvertsNF(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	s := ou.Size{R: 16, C: 16}
	const j, total = 0, 20
	d := m.ReprogramDeadline(j, total, s)
	if d <= m.Device.T0 || math.IsInf(d, 1) {
		t.Fatalf("deadline %v implausible", d)
	}
	// Just before: satisfied. Just after: violated.
	if !m.Satisfies(j, total, s, d*0.99) {
		t.Fatal("NF should satisfy just before the deadline")
	}
	if m.Satisfies(j, total, s, d*1.01) {
		t.Fatal("NF should violate just after the deadline")
	}
}

func TestReprogramDeadlineOrdering(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	// Smaller OUs buy strictly more drift headroom (the paper's central
	// mechanism).
	d44 := m.ReprogramDeadline(5, 20, ou.Size{R: 4, C: 4})
	d88 := m.ReprogramDeadline(5, 20, ou.Size{R: 8, C: 8})
	d1616 := m.ReprogramDeadline(5, 20, ou.Size{R: 16, C: 16})
	if !(d44 > d88 && d88 > d1616) {
		t.Fatalf("deadlines not ordered: %v, %v, %v", d44, d88, d1616)
	}
}

func TestReprogramDeadlineEdgeCases(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	m.Device.Nu = 0
	if !math.IsInf(m.ReprogramDeadline(0, 5, ou.Size{R: 4, C: 4}), 1) {
		t.Fatal("zero drift should never force reprogramming")
	}
	m = defaultModel()
	m.Eta = 1e-9 // impossible threshold
	if d := m.ReprogramDeadline(0, 5, ou.Size{R: 4, C: 4}); d != m.Device.T0 {
		t.Fatalf("already-violated config should return t0, got %v", d)
	}
}

func TestLossCalibration16x16(t *testing.T) {
	t.Parallel()
	// Headline: homogeneous 16×16 without reprogramming loses ≈22 points by
	// t = 10⁸ s (paper Fig. 7).
	m := defaultModel()
	sizes := make([]ou.Size, 11) // VGG11
	for i := range sizes {
		sizes[i] = ou.Size{R: 16, C: 16}
	}
	loss := m.Loss(sizes, 1e8)
	if loss < 0.17 || loss > 0.27 {
		t.Fatalf("16×16 loss at 1e8 s = %v, want ≈ 0.22", loss)
	}
	// At t₀ the loss is well under 1.5 points.
	if l0 := m.Loss(sizes, 1); l0 > 0.015 {
		t.Fatalf("t0 loss %v too high", l0)
	}
}

func TestLossOrderingAcrossOUSizes(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	mk := func(r, c int) []ou.Size {
		s := make([]ou.Size, 11)
		for i := range s {
			s[i] = ou.Size{R: r, C: c}
		}
		return s
	}
	const tt = 1e8
	l1616 := m.Loss(mk(16, 16), tt)
	l164 := m.Loss(mk(16, 4), tt)
	l84 := m.Loss(mk(8, 4), tt)
	if !(l1616 > l164 && l164 > l84) {
		t.Fatalf("loss ordering wrong: %v, %v, %v", l1616, l164, l84)
	}
}

func TestLossMonotoneInTimeProperty(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	sizes := []ou.Size{{R: 16, C: 8}, {R: 16, C: 16}, {R: 32, C: 32}, {R: 8, C: 4}}
	f := func(aRaw, bRaw uint32) bool {
		ta := 1 + float64(aRaw)
		tb := 1 + float64(bRaw)
		if ta > tb {
			ta, tb = tb, ta
		}
		return m.Loss(sizes, ta) <= m.Loss(sizes, tb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLossEmptyAndBounds(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	if m.Loss(nil, 1e8) != 0 {
		t.Fatal("empty size list should lose nothing")
	}
	sizes := make([]ou.Size, 30)
	for i := range sizes {
		sizes[i] = ou.Size{R: 128, C: 128}
	}
	if l := m.Loss(sizes, 1e30); l > m.MaxLoss {
		t.Fatalf("loss %v must saturate at MaxLoss %v", l, m.MaxLoss)
	}
	moderate := make([]ou.Size, 11)
	for i := range moderate {
		moderate[i] = ou.Size{R: 16, C: 16}
	}
	if l := m.Loss(moderate, 1e8); l >= m.MaxLoss {
		t.Fatalf("loss %v for a moderate configuration should stay below MaxLoss", l)
	}
}

func TestAccuracyClampsAtZero(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	m.MaxLoss = 1
	sizes := []ou.Size{{R: 128, C: 128}}
	if a := m.Accuracy(0.1, sizes, 1e30); a < 0 {
		t.Fatalf("accuracy went negative: %v", a)
	}
}

func TestAccuracySubtractsLoss(t *testing.T) {
	t.Parallel()
	m := defaultModel()
	sizes := []ou.Size{{R: 16, C: 16}, {R: 16, C: 16}}
	loss := m.Loss(sizes, 1e6)
	acc := m.Accuracy(0.92, sizes, 1e6)
	if math.Abs(acc-(0.92-loss)) > 1e-12 {
		t.Fatalf("accuracy %v inconsistent with loss %v", acc, loss)
	}
}
