package core

import (
	"fmt"
	"math"
	"testing"

	"odin/internal/check"
	"odin/internal/dnn"
)

// batchCase is one synthetic BatchReport arithmetic scenario.
type batchCase struct {
	N                 int
	Energy, Latency   float64
	RepEnergy, RepLat float64
	Passes            int
}

func genBatchCase() check.Gen[batchCase] {
	return check.Gen[batchCase]{
		Generate: func(t *check.T) batchCase {
			bc := batchCase{
				N:       1 + t.Rng.Intn(64),
				Energy:  t.Rng.Float64() * 1e-3,
				Latency: t.Rng.Float64() * 1e-3,
			}
			if t.Rng.Bernoulli(0.5) {
				bc.Passes = 1 + t.Rng.Intn(3)
				bc.RepEnergy = t.Rng.Float64() * 1e-1
				bc.RepLat = t.Rng.Float64() * 1e-1
			}
			return bc
		},
		Shrink: func(bc batchCase) []batchCase {
			var out []batchCase
			for _, v := range check.ShrinkInt(bc.N, 1) {
				m := bc
				m.N = v
				out = append(out, m)
			}
			mutF := func(v float64, set func(*batchCase, float64)) {
				for _, s := range check.ShrinkFloat(v, 0) {
					m := bc
					set(&m, s)
					out = append(out, m)
				}
			}
			mutF(bc.Energy, func(m *batchCase, v float64) { m.Energy = v })
			mutF(bc.Latency, func(m *batchCase, v float64) { m.Latency = v })
			mutF(bc.RepEnergy, func(m *batchCase, v float64) { m.RepEnergy = v })
			mutF(bc.RepLat, func(m *batchCase, v float64) { m.RepLat = v })
			return out
		},
	}
}

// TestPropBatchAmortisation pins the request-conservation arithmetic of the
// batch path: batch cost is exactly n·per-inference plus one amortised
// reprogramming pass, and therefore never exceeds n singleton runs that
// each pay the pass themselves (batch-amortised ≤ sum of singletons).
func TestPropBatchAmortisation(t *testing.T) {
	t.Parallel()
	check.Run(t, genBatchCase(), func(bc batchCase) error {
		rep := RunReport{
			Energy:           bc.Energy,
			Latency:          bc.Latency,
			Reprogrammed:     bc.Passes > 0,
			ReprogramPasses:  bc.Passes,
			ReprogramEnergy:  bc.RepEnergy,
			ReprogramLatency: bc.RepLat,
		}
		b := BatchReport{RunReport: rep, Requests: bc.N}
		n := float64(bc.N)
		if d := b.BatchEnergy() - (n*bc.Energy + bc.RepEnergy); d != 0 {
			return fmt.Errorf("BatchEnergy off by %g from n·E + reprogram", d)
		}
		if d := b.BatchLatency() - (n*bc.Latency + bc.RepLat); d != 0 {
			return fmt.Errorf("BatchLatency off by %g from n·L + reprogram", d)
		}
		singletons := n * rep.TotalEnergy()
		if b.BatchEnergy() > singletons*(1+1e-12) {
			return fmt.Errorf("batch energy %g exceeds %d singleton runs %g", b.BatchEnergy(), bc.N, singletons)
		}
		singletonLat := n * rep.TotalLatency()
		if b.BatchLatency() > singletonLat*(1+1e-12) {
			return fmt.Errorf("batch latency %g exceeds %d singleton runs %g", b.BatchLatency(), bc.N, singletonLat)
		}
		if d := rep.TotalEnergy() - (bc.Energy + bc.RepEnergy); d != 0 {
			return fmt.Errorf("TotalEnergy off by %g from component sum", d)
		}
		if d := rep.TotalLatency() - (bc.Latency + bc.RepLat); d != 0 {
			return fmt.Errorf("TotalLatency off by %g from component sum", d)
		}
		if d := rep.EDP() - bc.Energy*bc.Latency; d != 0 {
			return fmt.Errorf("EDP off by %g from Energy·Latency", d)
		}
		return nil
	})
}

// propModel is a 3-layer conv stack small enough that a decision pass costs
// microseconds; controller invariants, not workload scale, are under test.
func propModel() *dnn.Model {
	return &dnn.Model{
		Name:          "prop-tiny",
		Dataset:       dnn.Dataset{Name: "toy", InputH: 8, InputW: 8, Channels: 3, Classes: 10},
		IdealAccuracy: 0.9,
		Layers: []dnn.Layer{
			{Name: "c1", Type: dnn.Conv, KernelH: 3, KernelW: 3, InChannels: 3, OutChannels: 8, InH: 8, InW: 8, Stride: 1},
			{Name: "c2", Type: dnn.Conv, KernelH: 3, KernelW: 3, InChannels: 8, OutChannels: 8, InH: 8, InW: 8, Stride: 1},
			{Name: "c3", Type: dnn.Conv, KernelH: 3, KernelW: 3, InChannels: 8, OutChannels: 4, InH: 8, InW: 8, Stride: 1},
		},
	}
}

// ctrlCase drives one controller decision pass at a generated age/batch.
type ctrlCase struct {
	AgeExp float64 // run time = 10^AgeExp seconds
	N      int
	Budget int // SearchBudget; 0 = the rb default K = 3
}

func genCtrlCase() check.Gen[ctrlCase] {
	return check.Gen[ctrlCase]{
		Generate: func(t *check.T) ctrlCase {
			return ctrlCase{
				AgeExp: t.Rng.Float64() * 8,
				N:      1 + t.Rng.Intn(8),
				Budget: t.Rng.Intn(5),
			}
		},
		Shrink: func(c ctrlCase) []ctrlCase {
			var out []ctrlCase
			for _, v := range check.ShrinkInt(c.N, 1) {
				m := c
				m.N = v
				out = append(out, m)
			}
			for _, v := range check.ShrinkInt(c.Budget, 0) {
				m := c
				m.Budget = v
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

// TestPropControllerBatchInvariants pins Algorithm 1's per-pass contract on
// a fresh controller at arbitrary device ages: every decided size is a
// legal grid point, the RB evaluation budget layers·(1+4K) is respected,
// the learning state advances once per batch regardless of n, and the
// report's totals equal their component sums.
func TestPropControllerBatchInvariants(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	wl, err := sys.Prepare(propModel())
	if err != nil {
		t.Fatal(err)
	}
	grid := sys.Grid()
	check.RunConfig(t, check.Config{Trials: 25}, genCtrlCase(), func(c ctrlCase) error {
		opts := DefaultControllerOptions()
		opts.SearchBudget = c.Budget
		ctrl, err := NewController(sys, wl, freshPolicy(sys), opts)
		if err != nil {
			return fmt.Errorf("controller construction: %w", err)
		}
		rep := ctrl.RunBatch(math.Pow(10, c.AgeExp), c.N)
		if rep.Requests != c.N {
			return fmt.Errorf("batch of %d reported %d requests", c.N, rep.Requests)
		}
		if len(rep.Sizes) != wl.Layers() {
			return fmt.Errorf("%d sizes for %d layers", len(rep.Sizes), wl.Layers())
		}
		for j, s := range rep.Sizes {
			if _, _, ok := grid.IndexOf(s); !ok {
				return fmt.Errorf("layer %d decided off-grid size %v", j, s)
			}
		}
		k := c.Budget
		if k == 0 {
			k = 3
		}
		if budget := wl.Layers() * (1 + 4*k); rep.SearchEvaluations > budget {
			return fmt.Errorf("search spent %d evaluations, budget %d (K=%d)", rep.SearchEvaluations, budget, k)
		}
		if !(rep.Energy > 0) || !(rep.Latency > 0) {
			return fmt.Errorf("degenerate inference cost %g J / %g s", rep.Energy, rep.Latency)
		}
		if rep.Accuracy < 0 || rep.Accuracy > 1 {
			return fmt.Errorf("accuracy %g outside [0,1]", rep.Accuracy)
		}
		if d := rep.TotalEnergy() - (rep.Energy + rep.ReprogramEnergy); d != 0 {
			return fmt.Errorf("TotalEnergy off by %g from component sum", d)
		}
		if d := rep.BatchEnergy() - (float64(c.N)*rep.Energy + rep.ReprogramEnergy); d != 0 {
			return fmt.Errorf("BatchEnergy off by %g from n·E + reprogram", d)
		}
		if rep.Reprogrammed != (rep.ReprogramPasses > 0) {
			return fmt.Errorf("Reprogrammed=%v but %d passes", rep.Reprogrammed, rep.ReprogramPasses)
		}
		return nil
	})
}

// hoistCase is one point of the hoisted-arithmetic property: layer J of an
// L-layer network at a device age of kind AgeKind (0: 0 s, 1: t₀/2, 2: t₀,
// 3: the log-uniform draw 10^AgeExp s, up to 10⁹ s, 4: the η deadline of
// grid size Size, where NF is within rounding of η).
type hoistCase struct {
	L, J    int
	AgeKind int
	AgeExp  float64
	Size    int // row-major grid index of the AgeKind 4 size
}

func (c hoistCase) age(sys System) float64 {
	t0 := sys.Device.T0
	switch c.AgeKind {
	case 0:
		return 0
	case 1:
		return t0 / 2
	case 2:
		return t0
	case 3:
		return math.Pow(10, c.AgeExp)
	}
	return sys.Acc.ReprogramDeadline(c.J, c.L, sys.Grid().Sizes()[c.Size])
}

func genHoistCase() check.Gen[hoistCase] {
	return check.Gen[hoistCase]{
		Generate: func(t *check.T) hoistCase {
			l := 1 + t.Rng.Intn(130)
			return hoistCase{L: l, J: t.Rng.Intn(l), AgeKind: t.Rng.Intn(5), AgeExp: 9 * t.Rng.Float64(),
				Size: t.Rng.Intn(36)}
		},
		Shrink: func(c hoistCase) []hoistCase {
			var out []hoistCase
			for _, v := range check.ShrinkInt(c.L, 1) {
				m := c
				m.L, m.J = v, min(c.J, v-1)
				out = append(out, m)
			}
			for _, v := range check.ShrinkInt(c.J, 0) {
				m := c
				m.J = v
				out = append(out, m)
			}
			for _, v := range check.ShrinkInt(c.AgeKind, 0) {
				m := c
				m.AgeKind = v
				out = append(out, m)
			}
			for _, v := range check.ShrinkFloat(c.AgeExp, 0) {
				m := c
				m.AgeExp = v
				out = append(out, m)
			}
			for _, v := range check.ShrinkInt(c.Size, 0) {
				m := c
				m.Size = v
				out = append(out, m)
			}
			return out
		},
	}
}

// chainModel is an l-layer stack alternating 3×3 convolutions and FC
// layers: only the depth matters to the sensitivity weights under test.
func chainModel(l int) *dnn.Model {
	m := &dnn.Model{
		Name:          fmt.Sprintf("chain-%d", l),
		Dataset:       dnn.Dataset{Name: "toy", InputH: 8, InputW: 8, Channels: 8, Classes: 10},
		IdealAccuracy: 0.9,
	}
	for j := 0; j < l; j++ {
		layer := dnn.Layer{Name: fmt.Sprintf("c%d", j), Type: dnn.Conv, KernelH: 3, KernelW: 3,
			InChannels: 8, OutChannels: 8, InH: 8, InW: 8, Stride: 1}
		if j%2 == 1 {
			layer = dnn.Layer{Name: fmt.Sprintf("fc%d", j), Type: dnn.FC, KernelH: 1, KernelW: 1,
				InChannels: 512, OutChannels: 512, InH: 1, InW: 1, Stride: 1}
		}
		m.Layers = append(m.Layers, layer)
	}
	return m
}

// TestPropHoistedArithmeticBitIdentical pins that resolving Algorithm 1's
// age- and layer-only terms once — the sensitivity weight w_j per
// controller, the drift amplification A(t) per run and per decision — is
// bit-identical to accuracy.Model's per-call reference: LayerObjective's
// Feasible and NF equal Satisfies and NF on every grid size, and the
// per-run accuracy of a controller and of a baseline equals Accuracy, all
// compared by math.Float64bits; NF is also compared with (w·NF_IR(s))·A
// written out, since the reference shares NFWith's expression. Ages at a
// size's η deadline put NF within rounding of η, where a reordered or
// divided predicate would flip.
func TestPropHoistedArithmeticBitIdentical(t *testing.T) {
	t.Parallel()
	sys := DefaultSystem()
	grid := sys.Grid()
	wls := map[int]*Workload{}
	check.Run(t, genHoistCase(), func(c hoistCase) error {
		wl := wls[c.L]
		if wl == nil {
			var err error
			if wl, err = sys.Prepare(chainModel(c.L)); err != nil {
				return err
			}
			wls[c.L] = wl
		}
		age := c.age(sys)
		o := LayerObjective(sys, wl, c.J, age)
		for _, s := range grid.Sizes() {
			if got, want := o.Feasible(s), sys.Acc.Satisfies(c.J, c.L, s, age); got != want {
				return fmt.Errorf("Feasible(%v) = %v, Satisfies says %v (age %g)", s, got, want, age)
			}
			if got, want := o.NF(s), sys.Acc.NF(c.J, c.L, s, age); math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("NF(%v) = %v, reference %v (age %g)", s, got, want, age)
			}
			// NF and Satisfies share NFWith's expression with the objective,
			// so also pin that expression to its written-out order.
			literal := sys.Acc.Sens.Weight(c.J, c.L) * sys.Acc.IRFraction(s) * sys.Acc.Amplification(age)
			if got := o.NF(s); math.Float64bits(got) != math.Float64bits(literal) {
				return fmt.Errorf("NF(%v) = %v, (w·NF_IR)·A = %v (age %g)", s, got, literal, age)
			}
		}

		// A controller never sees an age below t₀; run it at the simulation
		// time whose device age is the case's age, clamped there.
		at := math.Max(age-sys.Device.T0, 0)
		ctrl, err := NewController(sys, wl, freshPolicy(sys), DefaultControllerOptions())
		if err != nil {
			return err
		}
		rep := ctrl.RunInference(at)
		want := sys.Acc.Accuracy(wl.Model.IdealAccuracy, rep.Sizes, rep.Age)
		if math.Float64bits(rep.Accuracy) != math.Float64bits(want) {
			return fmt.Errorf("controller accuracy %v, reference %v (age %g)", rep.Accuracy, want, rep.Age)
		}
		base, err := NewBaseline(sys, wl, grid.SizeAt(0, 0))
		if err != nil {
			return err
		}
		base.DisableReprogram = true
		brep := base.RunInference(at)
		want = sys.Acc.Accuracy(wl.Model.IdealAccuracy, brep.Sizes, brep.Age)
		if math.Float64bits(brep.Accuracy) != math.Float64bits(want) {
			return fmt.Errorf("baseline accuracy %v, reference %v (age %g)", brep.Accuracy, want, brep.Age)
		}
		return nil
	})
}
