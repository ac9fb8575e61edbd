// Package accuracy is the predictive-accuracy surrogate (the role PytorX
// plays for the paper's authors): it turns OU sizes, device age and layer
// sensitivity into (a) the non-ideality factor Odin's η threshold is tested
// against and (b) an estimated inference accuracy for Fig. 7 style studies.
//
// # Model
//
// The paper's Eq. (4) gives the conductance error of an R×C OU. At t = t₀
// it reduces to the IR-drop fraction
//
//	NF_IR(R,C) = a/(1+a),  a = G_ON · R_wire · (R+C) · (1 + R·C/A_ref)
//
// The (R+C) path-length term is Eq. (4)'s; the area factor extends it with
// the aggregate-current contribution (IR-drop scales with the total current
// of all concurrently active cells, not just the wire length), which is
// what keeps full-crossbar OUs infeasible at t₀ as in the paper's figures
// while leaving small OUs essentially at Eq. (4)'s literal value
// (≤ 6 % deviation up to 16×16). Over time the paper states that "the
// severity of IR-drop increases with inferencing time" as conductance
// drifts (Eq. 3); we model that as a multiplicative amplification
//
//	A(t) = (t/t₀)^ν   (ν = the Table II drift coefficient)
//
// and a per-layer sensitivity weight w_j (the paper: "non-idealities of
// crossbars executing the initial neural layers have a higher impact on
// predictive accuracy"), giving the effective non-ideality
//
//	NF_j(R,C,t) = w_j · NF_IR(R,C) · A(t)   tested against η (0.5 %).
//
// Taking Eq. (3)+(4) at face value instead (ΔG/G_ON with the raw drift term)
// would exceed any sub-percent η for every OU size within seconds of t₀ and
// force reprogramming on every run for every configuration — contradicting
// the paper's own reprogramming counts (43× for 16×16 vs 2× for 8×4 over
// 10⁸ s). The separable form above preserves every qualitative property the
// paper relies on (monotone in R+C and t, early layers tighter, smaller OUs
// buy drift headroom) while keeping the figures reproducible; constants are
// calibrated so the Fig. 7 headline (≈22 % accuracy drop for 16×16 without
// reprogramming) matches. See DESIGN.md §1.
package accuracy

import (
	"fmt"
	"math"

	"odin/internal/ou"
	"odin/internal/reram"
)

// Sensitivity models the layer-position dependence of accuracy impact:
// w_j = WMin + (WMax−WMin)·exp(−Decay · j/(L−1)).
type Sensitivity struct {
	WMax  float64 // weight of the first layer
	WMin  float64 // asymptotic weight of the deepest layers
	Decay float64 // exponential decay rate across normalised depth
}

// DefaultSensitivity returns the calibrated profile (see package comment).
// WMax anchors the reprogramming cadence: with it, the smallest 4×4 OU
// first violates η for the most sensitive layer at ≈ 4.7·10⁷ s, so Odin —
// which shrinks OUs as drift grows — reprograms only a couple of times per
// 10⁸ s horizon (the paper: once), while a fixed 16×16 array violates within
// ≈ 4·10⁴ s and reprograms orders of magnitude more often (the paper: 43×
// more). The WMax/WMin spread staggers per-layer deadlines so the OU-size
// distribution shifts smoothly across the Fig. 4/5 time sweep.
func DefaultSensitivity() Sensitivity {
	return Sensitivity{WMax: 0.055, WMin: 0.025, Decay: 2.5}
}

// Validate reports whether the profile is usable.
func (s Sensitivity) Validate() error {
	switch {
	case s.WMax <= 0 || s.WMin <= 0:
		return fmt.Errorf("accuracy: sensitivity weights must be positive (%v, %v)", s.WMax, s.WMin)
	case s.WMin > s.WMax:
		return fmt.Errorf("accuracy: WMin %v exceeds WMax %v", s.WMin, s.WMax)
	case s.Decay < 0:
		return fmt.Errorf("accuracy: negative decay %v", s.Decay)
	case s.WMax > 1:
		return fmt.Errorf("accuracy: WMax %v exceeds 1", s.WMax)
	}
	return nil
}

// Weight returns w_j for layer index j of a network with `total` layers.
func (s Sensitivity) Weight(j, total int) float64 {
	if total <= 0 || j < 0 || j >= total {
		panic(fmt.Sprintf("accuracy: layer %d of %d out of range", j, total))
	}
	if total == 1 {
		return s.WMax
	}
	u := float64(j) / float64(total-1)
	return s.WMin + (s.WMax-s.WMin)*math.Exp(-s.Decay*u)
}

// Weights returns the table w_0 … w_{total−1} of Weight: one exp per layer,
// paid once by callers that score the same network repeatedly.
func (s Sensitivity) Weights(total int) []float64 {
	w := make([]float64, total)
	for j := range w {
		w[j] = s.Weight(j, total)
	}
	return w
}

// Model bundles everything needed to score a configuration's accuracy
// impact. Its methods take a pointer: the line-6 search tests η on every
// candidate size, and a value receiver would copy the whole model each
// time.
type Model struct {
	Device reram.DeviceParams
	Sens   Sensitivity
	// Eta is the non-ideality threshold η (paper §V.A: 0.5 %).
	Eta float64
	// IRAreaRef is the OU cell count at which the aggregate-current term
	// doubles the IR-drop (see package comment). Default: 4096 (64×64).
	IRAreaRef float64
	// LossScale, LossPower and MaxLoss map the worst-layer non-ideality x
	// to an accuracy loss MaxLoss·(1−exp(−(x/LossScale)^LossPower)).
	// Calibrated so that x = η costs ≈ 0.5 accuracy points ("negligible")
	// while the unreprogrammed 16×16 configuration loses ≈ 22 points by
	// 10⁸ s — the two anchors the paper reports (§V.A, Fig. 7).
	LossScale float64
	LossPower float64
	MaxLoss   float64
}

// Default returns the calibrated model for the given device.
func Default(device reram.DeviceParams) Model {
	return Model{
		Device:    device,
		Sens:      DefaultSensitivity(),
		Eta:       0.005,
		IRAreaRef: 4096,
		LossScale: 0.0334,
		LossPower: 2.6,
		MaxLoss:   0.70,
	}
}

// Validate reports configuration errors.
func (m *Model) Validate() error {
	if err := m.Device.Validate(); err != nil {
		return err
	}
	if err := m.Sens.Validate(); err != nil {
		return err
	}
	switch {
	case m.Eta <= 0 || m.Eta >= 1:
		return fmt.Errorf("accuracy: eta %v out of (0,1)", m.Eta)
	case m.IRAreaRef <= 0:
		return fmt.Errorf("accuracy: non-positive IR area reference %v", m.IRAreaRef)
	case m.LossScale <= 0:
		return fmt.Errorf("accuracy: non-positive loss scale %v", m.LossScale)
	case m.LossPower <= 0:
		return fmt.Errorf("accuracy: non-positive loss power %v", m.LossPower)
	case m.MaxLoss <= 0 || m.MaxLoss > 1:
		return fmt.Errorf("accuracy: max loss %v out of (0,1]", m.MaxLoss)
	}
	return nil
}

// Amplification returns A(t) = (t/t₀)^ν, clamped to 1 below t₀.
func (m *Model) Amplification(t float64) float64 {
	if t < m.Device.T0 {
		return 1
	}
	return math.Pow(t/m.Device.T0, m.Device.Nu)
}

// IRFraction returns NF_IR(R,C) — Eq. (4) normalised by G_ON at t = t₀,
// extended with the aggregate-current area factor (see package comment).
func (m *Model) IRFraction(s ou.Size) float64 {
	if !s.Valid() {
		panic(fmt.Sprintf("accuracy: invalid OU size %v", s))
	}
	areaFactor := 1 + float64(s.R)*float64(s.C)/m.IRAreaRef
	a := m.Device.GOn * m.Device.RWire * float64(s.R+s.C) * areaFactor
	return a / (1 + a)
}

// NF returns the effective non-ideality of layer j (of `total`) computed
// with OU size s at device age t.
func (m *Model) NF(j, total int, s ou.Size, t float64) float64 {
	return m.NFWith(m.Sens.Weight(j, total), m.Amplification(t), s)
}

// NFWith is NF for a layer of sensitivity weight w at amplification amp:
// the one expression (w·NF_IR(s))·A every non-ideality figure and η test
// evaluates. Callers that hold w_j and A(t) fixed across many sizes (the
// line-6 search, the per-run accuracy) pass them in instead of paying one
// exp and one pow per size.
func (m *Model) NFWith(w, amp float64, s ou.Size) float64 {
	return w * m.IRFraction(s) * amp
}

// Satisfies reports whether the configuration meets the η constraint.
func (m *Model) Satisfies(j, total int, s ou.Size, t float64) bool {
	return m.SatisfiesWith(m.Sens.Weight(j, total), m.Amplification(t), s)
}

// SatisfiesWith is Satisfies for a layer of weight w at amplification amp.
func (m *Model) SatisfiesWith(w, amp float64, s ou.Size) bool {
	return m.NFWith(w, amp, s) < m.Eta
}

// AnySatisfiable reports whether at least one size in the grid meets the η
// constraint for layer j at age t. Because NF is monotone in R+C, checking
// the smallest grid size suffices.
func (m *Model) AnySatisfiable(j, total int, g ou.Grid, t float64) bool {
	return m.Satisfies(j, total, g.SizeAt(0, 0), t)
}

// ReprogramDeadline returns the device age at which OU size s stops
// satisfying η for layer j — the analytic inverse of NF(t) = η. It returns
// +Inf when the size never violates (ν = 0) and t₀ when it violates
// already at t₀.
func (m *Model) ReprogramDeadline(j, total int, s ou.Size) float64 {
	base := m.Sens.Weight(j, total) * m.IRFraction(s)
	if base >= m.Eta {
		return m.Device.T0
	}
	if m.Device.Nu == 0 {
		return math.Inf(1)
	}
	return m.Device.T0 * math.Pow(m.Eta/base, 1/m.Device.Nu)
}

// Loss estimates the accuracy loss (fraction, e.g. 0.22 = 22 points) of
// running a network whose layer j uses sizes[j], at device age t. The
// worst (sensitivity-weighted) layer dominates: corruption in an early
// feature extractor propagates through everything downstream, so end-to-end
// accuracy tracks the most-affected layer rather than the average.
func (m *Model) Loss(sizes []ou.Size, t float64) float64 {
	return m.LossWith(m.Sens.Weights(len(sizes)), m.Amplification(t), sizes)
}

// LossWith is Loss for per-layer weights w (w[j] = Sens.Weight(j,
// len(sizes))) at amplification amp.
func (m *Model) LossWith(w []float64, amp float64, sizes []ou.Size) float64 {
	if len(sizes) == 0 {
		return 0
	}
	var worst float64
	for j, s := range sizes {
		if nf := m.NFWith(w[j], amp, s); nf > worst {
			worst = nf
		}
	}
	return m.MaxLoss * (1 - math.Exp(-math.Pow(worst/m.LossScale, m.LossPower)))
}

// Accuracy estimates the inference accuracy of a model with the given ideal
// (fault-free) accuracy, layer OU sizes, and device age.
func (m *Model) Accuracy(ideal float64, sizes []ou.Size, t float64) float64 {
	return m.AccuracyWith(ideal, m.Sens.Weights(len(sizes)), m.Amplification(t), sizes)
}

// AccuracyWith is Accuracy for per-layer weights w at amplification amp.
func (m *Model) AccuracyWith(ideal float64, w []float64, amp float64, sizes []ou.Size) float64 {
	acc := ideal - m.LossWith(w, amp, sizes)
	if acc < 0 {
		return 0
	}
	return acc
}
