// Package reram models the ReRAM device and crossbar physics that Odin's
// analytical models are built on: conductance drift (paper Eq. 3), IR-drop
// induced conductance error for an R×C Operation Unit (paper Eq. 4),
// weight→conductance programming with per-cell quantisation, reprogramming
// cost, and a reference non-ideal matrix-vector-multiply used by the
// accuracy surrogate and the examples.
//
// All conductances are in siemens, resistances in ohms, times in seconds,
// energies in joules.
package reram

import (
	"fmt"
	"math"
)

// DeviceParams collects the ReRAM cell and crossbar electrical parameters
// (paper Table II) plus programming-cost constants.
type DeviceParams struct {
	GOn   float64 // on-state conductance (S); Table II: 333 µS
	GOff  float64 // off-state conductance (S); Table II: 0.33 µS
	RWire float64 // crossbar wire resistance per activated line (Ω); Table II: 1 Ω
	Nu    float64 // conductance drift coefficient v; Table II: 0.2 s⁻¹
	T0    float64 // initial device programming time t₀ (s)

	// DriftSigma is the relative device-to-device variation of the drift
	// coefficient: each cell drifts with ν·(1+σ·z), z ~ N(0,1), resampled at
	// every programming pass. Uniform drift rescales an MVM harmlessly; it
	// is this variation that corrupts *relative* weights and flips
	// classifications — the physical mechanism behind the accuracy
	// surrogate's drift term. 0 disables it.
	DriftSigma float64

	BitsPerCell int // weight bits stored per cell; Table I: 2

	// Programming (write) cost model. A reprogramming pass rewrites every
	// programmed cell with WritePulses pulses. Per-pulse values follow
	// published low-energy ReRAM write characteristics (single-digit pJ,
	// ≈ 100 ns) — the paper does not disclose its constants, only that
	// reprogramming energy is "high"; at these values a full-model rewrite
	// costs ~10⁴–10⁵ inferences' worth of energy, which makes frequent
	// reprogramming dominate coarse-OU energy budgets exactly as §V.C
	// reports.
	WriteEnergyPerCell  float64 // J per write pulse per cell
	WriteLatencyPerCell float64 // s per write pulse per cell (row-parallel writes divide this)
	WritePulses         int     // program-and-verify pulses per cell
}

// DefaultDeviceParams returns the paper's Table II parameters with the
// programming-cost constants described above.
func DefaultDeviceParams() DeviceParams {
	return DeviceParams{
		GOn:                 333e-6,
		GOff:                0.33e-6,
		RWire:               1.0,
		Nu:                  0.2,
		T0:                  1.0,
		DriftSigma:          0.10,
		BitsPerCell:         2,
		WriteEnergyPerCell:  2e-12, // 2 pJ per pulse
		WriteLatencyPerCell: 40e-9, // 40 ns per pulse
		WritePulses:         1,
	}
}

// Validate reports whether the parameters are physically sensible.
func (p DeviceParams) Validate() error {
	switch {
	case p.GOn <= 0 || p.GOff <= 0:
		return fmt.Errorf("reram: conductances must be positive (GOn=%g, GOff=%g)", p.GOn, p.GOff)
	case p.GOff >= p.GOn:
		return fmt.Errorf("reram: GOff (%g) must be below GOn (%g)", p.GOff, p.GOn)
	case p.RWire < 0:
		return fmt.Errorf("reram: negative wire resistance %g", p.RWire)
	case p.Nu < 0:
		return fmt.Errorf("reram: negative drift coefficient %g", p.Nu)
	case p.DriftSigma < 0 || p.DriftSigma >= 0.5:
		return fmt.Errorf("reram: drift variation %g out of [0,0.5)", p.DriftSigma)
	case p.T0 <= 0:
		return fmt.Errorf("reram: non-positive reference time %g", p.T0)
	case p.BitsPerCell < 1 || p.BitsPerCell > 8:
		return fmt.Errorf("reram: BitsPerCell %d out of [1,8]", p.BitsPerCell)
	}
	return nil
}

// GDrift returns the drifted on-state conductance at age t since programming
// (paper Eq. 3): G_drift(t) = G_ON · (t/t₀)^(−v). Ages below t₀ are clamped
// to t₀ (the device cannot be "younger" than its programming time).
func (p DeviceParams) GDrift(t float64) float64 {
	if t < p.T0 {
		t = p.T0
	}
	return p.GOn * math.Pow(t/p.T0, -p.Nu)
}

// DeltaG returns the absolute conductance error ΔG for an OU of size R×C at
// device age t (paper Eq. 4):
//
//	ΔG = | G_ON − 1 / ( 1/G_drift(t) + R_wire·(R+C) ) |
//
// The R+C term captures the IR-drop along the activated wordlines and
// bitlines; the drift term captures retention loss. Larger OUs and older
// devices both increase ΔG.
func (p DeviceParams) DeltaG(r, c int, t float64) float64 {
	if r < 1 || c < 1 {
		panic(fmt.Sprintf("reram: invalid OU size %dx%d", r, c))
	}
	gd := p.GDrift(t)
	eff := 1.0 / (1.0/gd + p.RWire*float64(r+c))
	return math.Abs(p.GOn - eff)
}

// NonIdealityFraction returns ΔG normalised by G_ON, the dimensionless
// non-ideality factor (NF) that Odin's η threshold is tested against.
func (p DeviceParams) NonIdealityFraction(r, c int, t float64) float64 {
	return p.DeltaG(r, c, t) / p.GOn
}

// ReprogramEnergy returns the energy to rewrite `cells` programmed cells.
func (p DeviceParams) ReprogramEnergy(cells int) float64 {
	return float64(cells) * p.WriteEnergyPerCell * float64(p.WritePulses)
}

// ReprogramLatency returns the time to rewrite `cells` cells with
// rowParallel cells written concurrently (one crossbar row per write step is
// typical; pass 0 or negative for fully serial writes).
func (p DeviceParams) ReprogramLatency(cells, rowParallel int) float64 {
	if rowParallel < 1 {
		rowParallel = 1
	}
	steps := (cells + rowParallel - 1) / rowParallel
	return float64(steps) * p.WriteLatencyPerCell * float64(p.WritePulses)
}

// CellLevels returns the number of distinct programmable conductance levels.
func (p DeviceParams) CellLevels() int { return 1 << p.BitsPerCell }

// QuantizeToLevel maps a normalised weight magnitude w ∈ [0,1] to the
// nearest programmable conductance in [GOff, GOn].
func (p DeviceParams) QuantizeToLevel(w float64) float64 {
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	levels := p.CellLevels()
	step := 1.0 / float64(levels-1)
	lvl := math.Round(w / step)
	frac := lvl * step
	return p.GOff + frac*(p.GOn-p.GOff)
}
