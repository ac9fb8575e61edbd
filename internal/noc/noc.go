// Package noc models the mesh network-on-chip that connects the platform's
// processing elements (paper §V.A: "36 ReRAM-based processing elements
// connected through a conventional mesh-based NoC").
//
// It provides the 2-D mesh topology, dimension-ordered (XY) wormhole
// routing, per-hop flit energy/latency constants, and a link-load contention
// model: flows are routed, per-link flit counts accumulated, and the
// serialisation delay of the most loaded link bounds the transfer phase.
// This is the standard analytic treatment for accelerator NoCs when a
// cycle-accurate simulation is not required; it feeds the inter-layer
// activation-movement term of the full-system energy/latency accounting.
package noc

import "fmt"

// Mesh is a W×H 2-D mesh with XY routing.
type Mesh struct {
	W, H       int
	FlitBits   int     // paper Table I: 32-bit flits
	HopLatency float64 // s per flit per hop (router + link traversal)
	HopEnergy  float64 // J per flit per hop
}

// DefaultMesh returns the paper's 6×6 mesh with 32-bit flits at 1.2 GHz
// single-cycle hops and a 32 nm-class per-hop flit energy.
func DefaultMesh() Mesh {
	return Mesh{
		W: 6, H: 6,
		FlitBits:   32,
		HopLatency: 1.0 / 1.2e9,
		HopEnergy:  1.5e-13, // 0.15 pJ per flit-hop
	}
}

// Validate reports whether the mesh parameters are usable.
func (m Mesh) Validate() error {
	switch {
	case m.W < 1 || m.H < 1:
		return fmt.Errorf("noc: invalid mesh %dx%d", m.W, m.H)
	case m.FlitBits < 1:
		return fmt.Errorf("noc: invalid flit width %d", m.FlitBits)
	case m.HopLatency <= 0 || m.HopEnergy < 0:
		return fmt.Errorf("noc: invalid hop constants (%g s, %g J)", m.HopLatency, m.HopEnergy)
	}
	return nil
}

// Nodes returns the node count.
func (m Mesh) Nodes() int { return m.W * m.H }

// Coord is a mesh position.
type Coord struct{ X, Y int }

// CoordOf returns the position of node id (row-major). It panics on an
// out-of-range id.
func (m Mesh) CoordOf(id int) Coord {
	if id < 0 || id >= m.Nodes() {
		panic(fmt.Sprintf("noc: node %d out of range [0,%d)", id, m.Nodes()))
	}
	return Coord{X: id % m.W, Y: id / m.W}
}

// NodeAt returns the node id at a position.
func (m Mesh) NodeAt(c Coord) int {
	if c.X < 0 || c.X >= m.W || c.Y < 0 || c.Y >= m.H {
		panic(fmt.Sprintf("noc: coordinate %+v outside %dx%d mesh", c, m.W, m.H))
	}
	return c.Y*m.W + c.X
}

// Hops returns the Manhattan distance between two nodes.
func (m Mesh) Hops(a, b int) int {
	ca, cb := m.CoordOf(a), m.CoordOf(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

// XYRoute returns the node sequence of the dimension-ordered route from a
// to b, inclusive of both endpoints: X first, then Y.
func (m Mesh) XYRoute(a, b int) []int {
	ca, cb := m.CoordOf(a), m.CoordOf(b)
	path := []int{a}
	cur := ca
	for cur.X != cb.X {
		cur.X += sign(cb.X - cur.X)
		path = append(path, m.NodeAt(cur))
	}
	for cur.Y != cb.Y {
		cur.Y += sign(cb.Y - cur.Y)
		path = append(path, m.NodeAt(cur))
	}
	return path
}

// Flits returns the flit count for a payload of the given bits.
func (m Mesh) Flits(bits int) int {
	if bits <= 0 {
		return 0
	}
	return (bits + m.FlitBits - 1) / m.FlitBits
}

// TransferLatency returns the uncontended wormhole latency of one payload:
// head-flit path traversal plus body serialisation.
func (m Mesh) TransferLatency(bits, hops int) float64 {
	flits := m.Flits(bits)
	if flits == 0 || hops == 0 {
		return 0
	}
	return float64(hops+flits-1) * m.HopLatency
}

// Flow is one unicast payload.
type Flow struct {
	Src, Dst int
	Bits     int
}

// link identifies a directed mesh link by its endpoint node ids.
type link struct{ from, to int }

// TrafficCost summarises the routed cost of a set of concurrent flows.
type TrafficCost struct {
	Energy         float64 // total flit-hop energy (J)
	Latency        float64 // transfer-phase latency bound (s)
	TotalFlitHops  int
	BottleneckLoad int // flits crossing the most loaded link
}

// Route routes all flows with XY routing and returns the aggregate cost.
// Energy sums every flit-hop. Latency is the max of (a) the serialisation
// delay of the most loaded link — flows sharing a link take turns — and
// (b) the longest single uncontended transfer.
func (m Mesh) Route(flows []Flow) TrafficCost {
	loads := make(map[link]int)
	var cost TrafficCost
	var longest float64
	for _, f := range flows {
		if f.Bits <= 0 || f.Src == f.Dst {
			continue
		}
		flits := m.Flits(f.Bits)
		path := m.XYRoute(f.Src, f.Dst)
		hops := len(path) - 1
		for i := 0; i < hops; i++ {
			loads[link{path[i], path[i+1]}] += flits
		}
		cost.TotalFlitHops += flits * hops
		if l := m.TransferLatency(f.Bits, hops); l > longest {
			longest = l
		}
	}
	for _, load := range loads {
		if load > cost.BottleneckLoad {
			cost.BottleneckLoad = load
		}
	}
	cost.Energy = float64(cost.TotalFlitHops) * m.HopEnergy
	serial := float64(cost.BottleneckLoad) * m.HopLatency
	if serial > longest {
		cost.Latency = serial
	} else {
		cost.Latency = longest
	}
	return cost
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}
