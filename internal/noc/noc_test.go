package noc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultMeshValid(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 36 {
		t.Fatalf("paper platform has 36 PEs, mesh has %d", m.Nodes())
	}
}

func TestValidateRejections(t *testing.T) {
	t.Parallel()
	mutations := []func(*Mesh){
		func(m *Mesh) { m.W = 0 },
		func(m *Mesh) { m.FlitBits = 0 },
		func(m *Mesh) { m.HopLatency = 0 },
		func(m *Mesh) { m.HopEnergy = -1 },
	}
	for i, mutate := range mutations {
		m := DefaultMesh()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	for id := 0; id < m.Nodes(); id++ {
		if got := m.NodeAt(m.CoordOf(id)); got != id {
			t.Fatalf("round trip failed for node %d: got %d", id, got)
		}
	}
}

func TestCoordPanics(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	for _, fn := range []func(){
		func() { m.CoordOf(-1) },
		func() { m.CoordOf(36) },
		func() { m.NodeAt(Coord{X: 6, Y: 0}) },
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

func TestHopsIsManhattan(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	// (0,0) to (5,5): 10 hops.
	if got := m.Hops(0, 35); got != 10 {
		t.Fatalf("corner-to-corner hops = %d, want 10", got)
	}
	if m.Hops(7, 7) != 0 {
		t.Fatal("self distance not 0")
	}
}

// Property: XY route length equals Manhattan distance and every step moves
// to a 1-hop neighbour.
func TestXYRouteProperty(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw) % m.Nodes()
		b := int(bRaw) % m.Nodes()
		path := m.XYRoute(a, b)
		if len(path)-1 != m.Hops(a, b) {
			return false
		}
		if path[0] != a || path[len(path)-1] != b {
			return false
		}
		for i := 0; i+1 < len(path); i++ {
			if m.Hops(path[i], path[i+1]) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXYRouteGoesXFirst(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	// Node 0 = (0,0) to node 13 = (1,2): route must pass (1,0) before moving in Y.
	path := m.XYRoute(0, 13)
	if path[1] != m.NodeAt(Coord{X: 1, Y: 0}) {
		t.Fatalf("XY routing must resolve X first, got path %v", path)
	}
}

func TestFlits(t *testing.T) {
	t.Parallel()
	m := DefaultMesh() // 32-bit flits
	cases := map[int]int{0: 0, -5: 0, 1: 1, 32: 1, 33: 2, 320: 10}
	for bits, want := range cases {
		if got := m.Flits(bits); got != want {
			t.Errorf("Flits(%d) = %d, want %d", bits, got, want)
		}
	}
}

func TestTransferLatencyWormhole(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	// 4 flits over 3 hops: (3 + 4 − 1) cycles.
	want := 6 * m.HopLatency
	if got := m.TransferLatency(4*32, 3); math.Abs(got-want) > 1e-18 {
		t.Fatalf("latency %v, want %v", got, want)
	}
	if m.TransferLatency(0, 5) != 0 || m.TransferLatency(100, 0) != 0 {
		t.Fatal("degenerate transfers must cost nothing")
	}
}

func TestRouteAggregates(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	flows := []Flow{
		{Src: 0, Dst: 5, Bits: 64},  // 2 flits × 5 hops
		{Src: 6, Dst: 11, Bits: 32}, // 1 flit × 5 hops
	}
	cost := m.Route(flows)
	if cost.TotalFlitHops != 2*5+1*5 {
		t.Fatalf("TotalFlitHops = %d", cost.TotalFlitHops)
	}
	// Energy is exactly one HopEnergy per flit-hop.
	if want := float64(cost.TotalFlitHops) * m.HopEnergy; cost.Energy != want {
		t.Fatalf("Energy = %v, want %d flit-hops × %v = %v", cost.Energy, cost.TotalFlitHops, m.HopEnergy, want)
	}
	if cost.Latency <= 0 {
		t.Fatalf("degenerate cost %+v", cost)
	}
}

func TestRouteContentionRaisesLatency(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	// Ten flows all crossing link (0→1) serialise there.
	var flows []Flow
	for i := 0; i < 10; i++ {
		flows = append(flows, Flow{Src: 0, Dst: 2, Bits: 32})
	}
	contended := m.Route(flows)
	single := m.Route(flows[:1])
	if contended.Latency <= single.Latency {
		t.Fatalf("contention did not raise latency: %v vs %v", contended.Latency, single.Latency)
	}
	if contended.BottleneckLoad != 10 {
		t.Fatalf("bottleneck load = %d, want 10", contended.BottleneckLoad)
	}
}

func TestRouteDisjointFlowsDontContend(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	// Parallel rows: same length, disjoint links.
	flows := []Flow{
		{Src: 0, Dst: 5, Bits: 32},
		{Src: 6, Dst: 11, Bits: 32},
		{Src: 12, Dst: 17, Bits: 32},
	}
	cost := m.Route(flows)
	single := m.Route(flows[:1])
	if math.Abs(cost.Latency-single.Latency) > 1e-18 {
		t.Fatalf("disjoint flows should not serialise: %v vs %v", cost.Latency, single.Latency)
	}
}

func TestRouteIgnoresDegenerateFlows(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	cost := m.Route([]Flow{
		{Src: 3, Dst: 3, Bits: 100}, // self flow
		{Src: 0, Dst: 1, Bits: 0},   // empty payload
	})
	if cost.Energy != 0 || cost.Latency != 0 || cost.TotalFlitHops != 0 {
		t.Fatalf("degenerate flows produced cost %+v", cost)
	}
}

func TestRouteEnergyMatchesFlitHops(t *testing.T) {
	t.Parallel()
	m := DefaultMesh()
	flows := []Flow{{Src: 0, Dst: 35, Bits: 96}}
	cost := m.Route(flows)
	if math.Abs(cost.Energy-float64(cost.TotalFlitHops)*m.HopEnergy) > 1e-24 {
		t.Fatal("energy inconsistent with flit-hop count")
	}
}
