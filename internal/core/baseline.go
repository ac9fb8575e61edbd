package core

import (
	"fmt"
	"math"

	"odin/internal/ou"
)

// Baseline runs a workload with a fixed, homogeneous OU size — the
// state-of-the-art configurations the paper compares against (§V.C):
// 16×16 [16], 16×4 [24], 9×8 [34] and 8×4 [16].
type Baseline struct {
	sys  System
	wl   *Workload
	size ou.Size
	// weights is the sensitivity table w_j of sys for the workload's depth.
	weights []float64

	// DisableReprogram reproduces the Fig. 7 "without reprogramming"
	// curves: the device is never rewritten and accuracy decays freely.
	DisableReprogram bool

	// deadline is the device age at which the fixed size first violates η
	// for its most sensitive layer (+Inf if never).
	deadline float64
	// energy and latency price one inference at the fixed size. Only
	// System.Prepare writes a workload's fields, so they never change.
	energy, latency float64

	programmedAt float64
	reprograms   int
}

// StandardBaselineSizes returns the four homogeneous configurations from
// prior work used throughout §V.
func StandardBaselineSizes() []ou.Size {
	return []ou.Size{
		{R: 16, C: 16},
		{R: 16, C: 4},
		{R: 9, C: 8},
		{R: 8, C: 4},
	}
}

// NewBaseline creates a homogeneous-OU runner. The size may be off the
// power-of-two grid (9×8 is) — the analytical models accept any size.
func NewBaseline(sys System, wl *Workload, size ou.Size) (*Baseline, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if wl == nil {
		return nil, fmt.Errorf("core: baseline needs a workload")
	}
	if !size.Valid() || size.R > sys.Arch.CrossbarSize || size.C > sys.Arch.CrossbarSize {
		return nil, fmt.Errorf("core: OU size %v invalid for %d×%d crossbars",
			size, sys.Arch.CrossbarSize, sys.Arch.CrossbarSize)
	}
	deadline := math.Inf(1)
	total := wl.Layers()
	for j := 0; j < total; j++ {
		if d := sys.Acc.ReprogramDeadline(j, total, size); d < deadline {
			deadline = d
		}
	}
	if deadline <= sys.Device.T0 {
		return nil, fmt.Errorf("core: OU size %v violates η even on a fresh device", size)
	}
	b := &Baseline{sys: sys, wl: wl, size: size, weights: sys.Acc.Sens.Weights(total),
		deadline: deadline}
	b.energy, b.latency = sys.inferenceCost(wl, b.sizes())
	return b, nil
}

// ReprogramInterval returns the wall time between reprogramming passes the
// fixed configuration needs to keep satisfying η (+Inf if it never
// violates).
func (b *Baseline) ReprogramInterval() float64 {
	if math.IsInf(b.deadline, 1) {
		return b.deadline
	}
	return b.deadline - b.sys.Device.T0
}

// Size returns the fixed OU configuration.
func (b *Baseline) Size() ou.Size { return b.size }

// Reprograms returns the reprogramming count so far.
func (b *Baseline) Reprograms() int { return b.reprograms }

// Age returns the device age at simulation time t.
func (b *Baseline) Age(t float64) float64 {
	age := t - b.programmedAt + b.sys.Device.T0
	if age < b.sys.Device.T0 {
		age = b.sys.Device.T0
	}
	return age
}

// RunInference executes one fixed-configuration inference run at time t.
// A homogeneous platform cannot shrink its OUs, so whenever the
// configuration violates η it must reprogram (unless disabled) — this is
// what makes coarse OUs pay the frequent-reprogramming penalty of §V.C.
// Violation checks happen continuously on real hardware (every inference),
// not just at the simulator's decision epochs, so all reprogramming passes
// that fell due since the previous run are counted and charged here; the
// reprogram count is therefore independent of the epoch cadence.
func (b *Baseline) RunInference(t float64) RunReport {
	age := b.Age(t)
	rep := RunReport{Time: t, Age: age, Sizes: b.sizes()}
	if !b.DisableReprogram && age > b.deadline {
		interval := b.ReprogramInterval()
		// Resets that fell due since the last programming instant.
		passes := int(math.Floor((age - b.sys.Device.T0) / interval))
		energy, latency := b.sys.reprogramCost(b.wl)
		rep.Reprogrammed = true
		rep.ReprogramPasses = passes
		rep.ReprogramEnergy = energy * float64(passes)
		rep.ReprogramLatency = latency * float64(passes)
		b.programmedAt += float64(passes) * interval
		b.reprograms += passes
		age = b.Age(t)
		rep.Age = age
	}
	rep.Energy, rep.Latency = b.energy, b.latency
	rep.Accuracy = b.sys.Acc.AccuracyWith(b.wl.Model.IdealAccuracy, b.weights,
		b.sys.Acc.Amplification(age), rep.Sizes)
	return rep
}

// sizes returns a fresh per-layer size vector holding the fixed size.
func (b *Baseline) sizes() []ou.Size {
	sizes := make([]ou.Size, b.wl.Layers())
	for j := range sizes {
		sizes[j] = b.size
	}
	return sizes
}
