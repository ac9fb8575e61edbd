package reram

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultParamsValid(t *testing.T) {
	t.Parallel()
	if err := DefaultDeviceParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	t.Parallel()
	base := DefaultDeviceParams()
	mutate := []func(*DeviceParams){
		func(p *DeviceParams) { p.GOn = 0 },
		func(p *DeviceParams) { p.GOff = -1 },
		func(p *DeviceParams) { p.GOff = p.GOn },
		func(p *DeviceParams) { p.RWire = -1 },
		func(p *DeviceParams) { p.Nu = -0.1 },
		func(p *DeviceParams) { p.T0 = 0 },
		func(p *DeviceParams) { p.BitsPerCell = 0 },
		func(p *DeviceParams) { p.BitsPerCell = 9 },
	}
	for i, m := range mutate {
		p := base
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestGDriftAtT0IsGOn(t *testing.T) {
	t.Parallel()
	p := DefaultDeviceParams()
	if g := p.GDrift(p.T0); math.Abs(g-p.GOn) > 1e-18 {
		t.Fatalf("GDrift(t0) = %v, want GOn = %v", g, p.GOn)
	}
}

func TestGDriftClampsBelowT0(t *testing.T) {
	t.Parallel()
	p := DefaultDeviceParams()
	if g := p.GDrift(p.T0 / 10); g != p.GOn {
		t.Fatalf("GDrift before t0 = %v, want GOn", g)
	}
}

func TestGDriftMonotoneDecreasing(t *testing.T) {
	t.Parallel()
	p := DefaultDeviceParams()
	prev := p.GDrift(1)
	for _, tt := range []float64{10, 100, 1e4, 1e6, 1e8} {
		g := p.GDrift(tt)
		if g >= prev {
			t.Fatalf("GDrift not decreasing at t=%v: %v >= %v", tt, g, prev)
		}
		prev = g
	}
}

func TestGDriftPowerLaw(t *testing.T) {
	t.Parallel()
	p := DefaultDeviceParams()
	// (1e5)^-0.2 = 10^-1 = 0.1
	want := p.GOn * 0.1
	if g := p.GDrift(1e5); math.Abs(g-want)/want > 1e-12 {
		t.Fatalf("GDrift(1e5) = %v, want %v", g, want)
	}
}

func TestDeltaGAtT0MatchesHandComputation(t *testing.T) {
	t.Parallel()
	p := DefaultDeviceParams()
	// ΔG(16,16,t0) = |GOn − 1/(1/GOn + 32)| with GOn = 333 µS.
	inv := 1.0/p.GOn + 32.0
	want := p.GOn - 1.0/inv
	if got := p.DeltaG(16, 16, p.T0); math.Abs(got-want) > 1e-18 {
		t.Fatalf("DeltaG = %v, want %v", got, want)
	}
	// Sanity: roughly 1% of GOn for a 16×16 OU at t0.
	nf := p.NonIdealityFraction(16, 16, p.T0)
	if nf < 0.008 || nf > 0.013 {
		t.Fatalf("NF(16x16,t0) = %v, expected ≈ 0.0105", nf)
	}
}

func TestDeltaGMonotoneInOUSize(t *testing.T) {
	t.Parallel()
	p := DefaultDeviceParams()
	for _, tt := range []float64{1, 100, 1e4} {
		prev := -1.0
		for _, s := range []int{4, 8, 16, 32, 64, 128} {
			d := p.DeltaG(s, s, tt)
			if d <= prev {
				t.Fatalf("DeltaG not increasing with OU size at t=%v size=%d", tt, s)
			}
			prev = d
		}
	}
}

func TestDeltaGMonotoneInTime(t *testing.T) {
	t.Parallel()
	p := DefaultDeviceParams()
	prev := -1.0
	for _, tt := range []float64{1, 10, 100, 1e4, 1e6, 1e8} {
		d := p.DeltaG(16, 16, tt)
		if d <= prev {
			t.Fatalf("DeltaG not increasing with time at t=%v", tt)
		}
		prev = d
	}
}

func TestDeltaGPropertyQuick(t *testing.T) {
	t.Parallel()
	p := DefaultDeviceParams()
	f := func(rRaw, cRaw uint8, tRaw uint32) bool {
		r := int(rRaw%128) + 1
		c := int(cRaw%128) + 1
		tt := 1 + float64(tRaw)
		d := p.DeltaG(r, c, tt)
		// ΔG is non-negative and bounded by GOn.
		if d < 0 || d > p.GOn {
			return false
		}
		// Adding a row can never reduce ΔG.
		return p.DeltaG(r+1, c, tt) >= d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaGPanicsOnBadOU(t *testing.T) {
	t.Parallel()
	p := DefaultDeviceParams()
	defer func() {
		if recover() == nil {
			t.Fatal("DeltaG(0,4) did not panic")
		}
	}()
	p.DeltaG(0, 4, 1)
}

func TestReprogramCosts(t *testing.T) {
	t.Parallel()
	p := DefaultDeviceParams()
	e := p.ReprogramEnergy(1000)
	want := 1000 * p.WriteEnergyPerCell * float64(p.WritePulses)
	if math.Abs(e-want) > 1e-18 {
		t.Fatalf("ReprogramEnergy = %v, want %v", e, want)
	}
	// 1000 cells at 128-wide row parallelism = ceil(1000/128) = 8 steps.
	l := p.ReprogramLatency(1000, 128)
	wantL := 8 * p.WriteLatencyPerCell * float64(p.WritePulses)
	if math.Abs(l-wantL) > 1e-18 {
		t.Fatalf("ReprogramLatency = %v, want %v", l, wantL)
	}
	// Serial fallback.
	if p.ReprogramLatency(10, 0) != 10*p.WriteLatencyPerCell*float64(p.WritePulses) {
		t.Fatal("serial reprogram latency wrong")
	}
}

func TestQuantizeToLevel(t *testing.T) {
	t.Parallel()
	p := DefaultDeviceParams() // 2 bits → 4 levels
	if got := p.CellLevels(); got != 4 {
		t.Fatalf("CellLevels = %d, want 4", got)
	}
	if g := p.QuantizeToLevel(0); g != p.GOff {
		t.Fatalf("Quantize(0) = %v, want GOff", g)
	}
	if g := p.QuantizeToLevel(1); g != p.GOn {
		t.Fatalf("Quantize(1) = %v, want GOn", g)
	}
	// Out-of-range inputs clamp.
	if p.QuantizeToLevel(-0.5) != p.GOff || p.QuantizeToLevel(2) != p.GOn {
		t.Fatal("clamping failed")
	}
	// Mid value snaps to one of 4 levels.
	mid := p.QuantizeToLevel(0.4)
	step := (p.GOn - p.GOff) / 3
	snapped := false
	for lvl := 0; lvl < 4; lvl++ {
		if math.Abs(mid-(p.GOff+float64(lvl)*step)) < 1e-15 {
			snapped = true
		}
	}
	if !snapped {
		t.Fatalf("Quantize(0.4) = %v not on a level grid", mid)
	}
}

func TestQuantizeMonotoneProperty(t *testing.T) {
	t.Parallel()
	p := DefaultDeviceParams()
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw) / 65535
		b := float64(bRaw) / 65535
		if a > b {
			a, b = b, a
		}
		return p.QuantizeToLevel(a) <= p.QuantizeToLevel(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
