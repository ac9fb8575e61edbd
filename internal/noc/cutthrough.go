package noc

import (
	"fmt"
	"math"
)

// This file adds a cycle-level virtual cut-through simulation of the mesh.
// The analytic Route model (noc.go) bounds the transfer phase by the
// bottleneck link's serialisation; the simulation resolves the actual
// pipelined schedule: a packet's head advances one hop per cycle, each link
// carries one packet at a time, and a packet occupies a link for its full
// flit count once transmission starts. Injection and ejection ports
// serialise a node's own traffic. XY routing keeps the schedule
// deadlock-free. The experiment suite uses it to validate the analytic
// model on real layer-to-layer traffic.

// SimPacket is the per-packet outcome of a simulation.
type SimPacket struct {
	Flow    Flow
	Inject  int // cycle the head left the source
	Finish  int // cycle the tail arrived at the destination
	Hops    int
	Latency int // Finish − Inject
}

// SimResult aggregates one cut-through simulation.
type SimResult struct {
	Packets       []SimPacket
	MakespanCyc   int     // cycle the last tail arrived
	Makespan      float64 // seconds
	Energy        float64 // flit-hop energy (identical basis to Route)
	TotalFlitHops int
	AvgLatencyCyc float64
}

// SimulateCutThrough schedules the flows on the mesh cycle-accurately.
// Flows are injected in slice order at cycle 0; a source with several flows
// serialises them through its injection port. Degenerate flows (zero
// payload or self-loops) are skipped, matching Route.
func (m Mesh) SimulateCutThrough(flows []Flow) SimResult {
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("noc: %v", err))
	}
	linkFree := make(map[link]int)
	injectFree := make(map[int]int)
	ejectFree := make(map[int]int)

	var res SimResult
	for _, f := range flows {
		if f.Bits <= 0 || f.Src == f.Dst {
			continue
		}
		flits := m.Flits(f.Bits)
		path := m.XYRoute(f.Src, f.Dst)
		hops := len(path) - 1

		// Injection port: the packet leaves the source when the port frees.
		start := injectFree[f.Src]
		headAt := start // cycle the head starts crossing the next link
		for i := 0; i < hops; i++ {
			l := link{path[i], path[i+1]}
			// The head needs the link free and must have arrived.
			s := max(headAt, linkFree[l])
			linkFree[l] = s + flits // tail releases after all flits pass
			headAt = s + 1          // head reaches the next router a cycle later
		}
		// Ejection port serialises arrivals at the destination.
		tailArrive := headAt - 1 + flits
		if e := ejectFree[f.Dst]; e > tailArrive {
			tailArrive = e
		}
		ejectFree[f.Dst] = tailArrive
		injectFree[f.Src] = start + flits

		res.Packets = append(res.Packets, SimPacket{
			Flow:    f,
			Inject:  start,
			Finish:  tailArrive,
			Hops:    hops,
			Latency: tailArrive - start,
		})
		res.TotalFlitHops += flits * hops
		if tailArrive > res.MakespanCyc {
			res.MakespanCyc = tailArrive
		}
	}
	res.Energy = float64(res.TotalFlitHops) * m.HopEnergy
	res.Makespan = float64(res.MakespanCyc) * m.HopLatency
	var total float64
	for _, p := range res.Packets {
		total += float64(p.Latency)
	}
	if len(res.Packets) > 0 {
		res.AvgLatencyCyc = total / float64(len(res.Packets))
	}
	return res
}

// ValidateAgainstAnalytic compares the simulated makespan with the analytic
// Route bound and returns the ratio simulated/analytic. The analytic model
// is a lower bound on the transfer phase (it ignores head-path pipelining
// interactions), so the ratio is ≥ ~1 and should stay small on sane
// traffic; experiments assert both.
func (m Mesh) ValidateAgainstAnalytic(flows []Flow) (ratio float64, sim SimResult, analytic TrafficCost) {
	sim = m.SimulateCutThrough(flows)
	analytic = m.Route(flows)
	if analytic.Latency == 0 {
		if sim.Makespan == 0 {
			return 1, sim, analytic
		}
		return math.Inf(1), sim, analytic
	}
	return sim.Makespan / analytic.Latency, sim, analytic
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
