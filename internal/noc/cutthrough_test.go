package noc

import (
	"math"
	"testing"
	"testing/quick"

	"odin/internal/rng"
)

func TestCutThroughSinglePacketMatchesWormholeFormula(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	// One 4-flit packet over 3 hops: head needs 3 cycles to reach the sink's
	// input link, tail lands flits−1 cycles after the head: (hops−1)+flits.
	sim := m.SimulateCutThrough([]Flow{{Src: 0, Dst: 3, Bits: 4 * 32}})
	if len(sim.Packets) != 1 {
		t.Fatalf("packets = %d", len(sim.Packets))
	}
	p := sim.Packets[0]
	if p.Hops != 3 {
		t.Fatalf("hops = %d", p.Hops)
	}
	want := (3 - 1) + 4 // head pipeline + serialisation
	if p.Latency != want {
		t.Fatalf("latency = %d cycles, want %d", p.Latency, want)
	}
	if sim.MakespanCyc != p.Finish {
		t.Fatal("makespan mismatch")
	}
	if math.Abs(sim.Makespan-float64(p.Finish)*m.HopLatency) > 1e-18 {
		t.Fatal("makespan seconds inconsistent")
	}
}

func TestCutThroughDegenerateFlowsSkipped(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	sim := m.SimulateCutThrough([]Flow{
		{Src: 2, Dst: 2, Bits: 64},
		{Src: 0, Dst: 1, Bits: 0},
	})
	if len(sim.Packets) != 0 || sim.MakespanCyc != 0 || sim.Energy != 0 {
		t.Fatalf("degenerate flows produced work: %+v", sim)
	}
}

func TestCutThroughSharedLinkSerialises(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	// Two packets over the same links: the second must wait.
	flows := []Flow{
		{Src: 0, Dst: 2, Bits: 8 * 32},
		{Src: 0, Dst: 2, Bits: 8 * 32},
	}
	sim := m.SimulateCutThrough(flows)
	if len(sim.Packets) != 2 {
		t.Fatal("lost a packet")
	}
	first, second := sim.Packets[0], sim.Packets[1]
	if second.Inject < first.Inject+8 {
		t.Fatalf("injection port did not serialise: %d vs %d", second.Inject, first.Inject)
	}
	if second.Finish <= first.Finish {
		t.Fatal("contending packet finished first")
	}
}

func TestCutThroughDisjointFlowsRunInParallel(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	single := m.SimulateCutThrough([]Flow{{Src: 0, Dst: 5, Bits: 16 * 32}})
	parallel := m.SimulateCutThrough([]Flow{
		{Src: 0, Dst: 5, Bits: 16 * 32},
		{Src: 6, Dst: 11, Bits: 16 * 32},
		{Src: 12, Dst: 17, Bits: 16 * 32},
	})
	if parallel.MakespanCyc != single.MakespanCyc {
		t.Fatalf("disjoint rows should not interfere: %d vs %d",
			parallel.MakespanCyc, single.MakespanCyc)
	}
}

func TestCutThroughEnergyMatchesAnalytic(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	flows := []Flow{
		{Src: 0, Dst: 35, Bits: 320},
		{Src: 7, Dst: 13, Bits: 96},
	}
	sim := m.SimulateCutThrough(flows)
	route := m.Route(flows)
	// Energy is path-length × flits on both models — must agree exactly.
	if sim.TotalFlitHops != route.TotalFlitHops {
		t.Fatalf("flit-hops disagree: sim %d analytic %d", sim.TotalFlitHops, route.TotalFlitHops)
	}
	if math.Abs(sim.Energy-route.Energy) > 1e-21 {
		t.Fatalf("energy disagrees: %v vs %v", sim.Energy, route.Energy)
	}
}

// Property: the simulated makespan is never below either analytic lower
// bound (longest single transfer, bottleneck-link serialisation).
func TestCutThroughLowerBoundsProperty(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	f := func(seed uint32, nRaw uint8) bool {
		src := rng.New(uint64(seed))
		n := int(nRaw%12) + 1
		flows := make([]Flow, n)
		for i := range flows {
			flows[i] = Flow{
				Src:  src.Intn(m.Nodes()),
				Dst:  src.Intn(m.Nodes()),
				Bits: (1 + src.Intn(16)) * m.FlitBits,
			}
		}
		sim := m.SimulateCutThrough(flows)
		route := m.Route(flows)
		// Allow exact equality; the sim must not beat the bound.
		return sim.Makespan >= route.Latency-1e-18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateAgainstAnalytic(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	src := rng.New(99)
	var flows []Flow
	for i := 0; i < 30; i++ {
		flows = append(flows, Flow{
			Src:  src.Intn(m.Nodes()),
			Dst:  src.Intn(m.Nodes()),
			Bits: (1 + src.Intn(64)) * m.FlitBits,
		})
	}
	ratio, sim, analytic := m.ValidateAgainstAnalytic(flows)
	if ratio < 1-1e-9 {
		t.Fatalf("simulation beat the analytic lower bound: %v", ratio)
	}
	if ratio > 10 {
		t.Fatalf("analytic model off by %v× — bound too loose", ratio)
	}
	if sim.AvgLatencyCyc <= 0 || analytic.Energy <= 0 {
		t.Fatal("degenerate outputs")
	}
}

func TestValidateAgainstAnalyticEmpty(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	ratio, _, _ := m.ValidateAgainstAnalytic(nil)
	if ratio != 1 {
		t.Fatalf("empty traffic ratio = %v, want 1", ratio)
	}
}
