package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"odin/internal/accuracy"
	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/policy"
	"odin/internal/reram"
	"odin/internal/serve"
	"odin/internal/telemetry"
)

// The fleet experiment replays fleetRequests arrivals, drawn from the
// trace stream labelled fleetSeed, over fleetChips chips.
const (
	fleetChips    = 1024
	fleetRequests = 4 * fleetChips
	fleetSeed     = 1
)

// FleetRow is one router's replay of the shared trace on a fresh fleet.
type FleetRow struct {
	Router          string  // serve router name
	Churn           bool    // true when the replay hot-adds and removes chips
	Admitted        int     // requests admitted past admission control
	Shed            int     // requests shed by admission control
	ReprogramOnPath uint64  // requests whose own batch stalled on a forced write pass
	Maintenance     uint64  // off-path maintenance write passes (idle chips)
	P50             float64 // median sojourn (wait + service), seconds
	P99             float64 // 99th-percentile sojourn, seconds
	Checksum        uint64  // FNV-1a decision-log fingerprint (replay determinism handle)
}

// FleetResult is the data behind the fleet experiment: the same
// drift-staggered trace replayed under each router.
type FleetResult struct {
	Chips    int
	Requests int
	Models   []string
	Rate     float64 // arrival rate, requests/s
	Deadline float64 // forced-reprogram deadline the stagger spreads across, s
	Rows     []FleetRow
}

// fleetModel builds one of the experiment's tiny conv variants. Serving
// behavior at fleet scale is under test, not workload scale, so the models
// are three-layer stacks that decide in microseconds; width varies across
// variants so the trace mixes genuinely different service times.
func fleetModel(name string, width int) *dnn.Model {
	return &dnn.Model{
		Name:          name,
		Dataset:       dnn.Dataset{Name: "toy", InputH: 8, InputW: 8, Channels: 3, Classes: 10},
		IdealAccuracy: 0.9,
		Layers: []dnn.Layer{
			{Name: "c1", Type: dnn.Conv, KernelH: 3, KernelW: 3, InChannels: 3, OutChannels: width, InH: 8, InW: 8, Stride: 1},
			{Name: "c2", Type: dnn.Conv, KernelH: 3, KernelW: 3, InChannels: width, OutChannels: width, InH: 8, InW: 8, Stride: 1},
			{Name: "c3", Type: dnn.Conv, KernelH: 3, KernelW: 3, InChannels: width, OutChannels: 4, InH: 8, InW: 8, Stride: 1},
		},
	}
}

// fleetSystem accelerates conductance drift so forced-reprogram deadlines
// land on the trace's microsecond scale: Nu=2 steepens the power law, the
// small T0 shrinks the deadline to ~60 tiny-model service latencies, and
// the faster write pulses keep the reprogram stall well inside the drift
// router's steering window (1−margin)·deadline. Same constants as the
// serve package's drift property tests.
func fleetSystem() core.System {
	dev := reram.DefaultDeviceParams()
	dev.Nu = 2
	dev.T0 = 5e-6
	dev.WriteLatencyPerCell = 0.2e-9
	sys := core.DefaultSystem()
	sys.Device = dev
	sys.Acc = accuracy.Default(dev)
	return sys
}

// fleetProbe measures one variant on a throwaway controller built from
// base: its service latency (for rate calibration) and its
// forced-reprogram deadline (for the stagger span). Deterministic, and
// shares no state with the fleets but base's decision cache, whose entries
// are pure functions of their keys.
func fleetProbe(sys core.System, base core.ControllerOptions, m *dnn.Model) (lat, deadline float64, err error) {
	wl, err := sys.Prepare(m)
	if err != nil {
		return 0, 0, err
	}
	pol := policy.New(policy.Config{Grid: sys.Grid(), Seed: 1})
	ctrl, err := core.NewController(sys, wl, pol, base)
	if err != nil {
		return 0, 0, err
	}
	return ctrl.RunInference(0).Latency, ctrl.ForcedReprogramAge(), nil
}

// sojournQuantile returns the exact q-quantile (nearest-rank) of the
// served requests' sojourn times (queue wait + service latency).
func sojournQuantile(sojourns []float64, q float64) float64 {
	if len(sojourns) == 0 {
		return 0
	}
	rank := int(q*float64(len(sojourns))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sojourns) {
		rank = len(sojourns) - 1
	}
	return sojourns[rank]
}

// Fleet replays one drift-staggered mixed-model trace over a ≥1000-chip
// fleet under each routing policy and reports what routing awareness of
// device drift buys at scale.
//
// The fleet is seeded with ProgrammedAt staggered uniformly across one
// forced-reprogram deadline, so at any instant a fixed slice of the fleet
// (1 − DriftMargin of it) sits inside the steering margin and a few chips
// are already due. Round-robin routes into those chips and pays the write
// pass on the request path (a many-service-latency stall lands in p99);
// the drift router steers the work to healthy peers and retires the due
// chips' write passes off-path while they are idle. The churn row replays
// the drift configuration with two hot adds and a mid-trace removal to pin
// that lifecycle events do not perturb the routing win — or determinism
// (its checksum is frozen in the golden file alongside the others).
// Every chip's controller starts from base, whose zero TrainSeed keeps
// each chip's own seed.
func Fleet(base core.ControllerOptions) (*FleetResult, error) {
	sys := fleetSystem()

	variants := []*dnn.Model{
		fleetModel("tinyA", 8),
		fleetModel("tinyB", 12),
		fleetModel("tinyC", 16),
	}
	names := make([]string, len(variants))
	var maxLat float64
	deadline := 0.0
	for i, m := range variants {
		names[i] = m.Name
		lat, d, err := fleetProbe(sys, base, m)
		if err != nil {
			return nil, err
		}
		if lat > maxLat {
			maxLat = lat
		}
		if deadline == 0 || d < deadline {
			deadline = d
		}
	}

	// Half-utilisation arrivals: enough concurrency that routing matters,
	// low enough that queues drain and sheds stay rare.
	rate := 0.5 * fleetChips / maxLat
	tr, err := serve.GenTrace(serve.TraceConfig{
		Seed: fleetSeed, Rate: rate, Requests: fleetRequests, Models: names,
	})
	if err != nil {
		return nil, err
	}

	// Chip i hosts variant i mod 3 and is back-dated by i/N of the
	// deadline: ages at t=0 cover [T0, deadline+T0) uniformly, so the
	// trace observes every drift phase at once instead of waiting a full
	// deadline for the fleet to age into the interesting regime.
	chips := make([]serve.ChipConfig, fleetChips)
	for i := range chips {
		chips[i] = serve.ChipConfig{
			Custom:       variants[i%len(variants)],
			Seed:         uint64(i) + 1,
			ProgrammedAt: -deadline * float64(i) / fleetChips,
		}
	}

	run := func(router string, churn bool) (FleetRow, error) {
		reg := telemetry.NewRegistry()
		clk := clock.NewVirtual(0)
		cfg := serve.Config{
			Chips:      chips,
			Router:     router,
			QueueDepth: 8,
			MaxBatch:   4,
			Workers:    8,
			Clock:      clk,
			Registry:   reg,
			System:     &sys,
			Controller: base,
		}
		s, err := serve.NewServer(cfg)
		if err != nil {
			return FleetRow{}, err
		}
		s.Start()
		var ops []serve.FleetOp
		if churn {
			ops = []serve.FleetOp{
				{After: fleetRequests / 3, Add: &serve.ChipConfig{Custom: variants[0], Seed: fleetChips + 1}},
				{After: fleetRequests / 3, Add: &serve.ChipConfig{Custom: variants[1], Seed: fleetChips + 2}},
				{After: 2 * fleetRequests / 3, Remove: 1},
			}
		}
		res := serve.ReplayOps(s, clk, tr, ops)

		var sojourns []float64
		for _, r := range res.Responses {
			if !r.Shed && !r.Rejected && r.Err == "" {
				sojourns = append(sojourns, r.Wait+r.Latency)
			}
		}
		sort.Float64s(sojourns)
		return FleetRow{
			Router:          router,
			Churn:           churn,
			Admitted:        res.Admitted,
			Shed:            res.Shed,
			ReprogramOnPath: reg.Counter("odinserve_reprogram_on_path_requests_total", "").Value(),
			Maintenance:     reg.Counter("odinserve_maintenance_reprograms_total", "").Value(),
			P50:             sojournQuantile(sojourns, 0.50),
			P99:             sojournQuantile(sojourns, 0.99),
			Checksum:        res.Checksum,
		}, nil
	}

	out := &FleetResult{
		Chips: fleetChips, Requests: fleetRequests, Models: names,
		Rate: rate, Deadline: deadline,
	}
	for _, rc := range []struct {
		router string
		churn  bool
	}{
		{"rr", false},
		{"least", false},
		{"drift", false},
		{"drift", true},
	} {
		row, err := run(rc.router, rc.churn)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the paper-style comparison table.
func (r *FleetResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fleet-scale routing: %d chips, %d-request mixed trace (%s)\n",
		r.Chips, r.Requests, strings.Join(r.Models, ", "))
	fmt.Fprintf(w, "rate %.4g req/s; drift phases staggered across the %.4g s forced-reprogram deadline\n",
		r.Rate, r.Deadline)
	fmt.Fprintf(w, "%-8s %-5s %9s %6s %8s %6s %10s %10s  %s\n",
		"router", "churn", "admitted", "shed", "on-path", "maint", "p50(us)", "p99(us)", "checksum")
	var rr, drift *FleetRow
	for i := range r.Rows {
		row := &r.Rows[i]
		churn := "-"
		if row.Churn {
			churn = "+"
		}
		fmt.Fprintf(w, "%-8s %-5s %9d %6d %8d %6d %10.3f %10.3f  %#016x\n",
			row.Router, churn, row.Admitted, row.Shed,
			row.ReprogramOnPath, row.Maintenance,
			row.P50*1e6, row.P99*1e6, row.Checksum)
		if !row.Churn {
			switch row.Router {
			case "rr":
				rr = row
			case "drift":
				drift = row
			}
		}
	}
	if rr != nil && drift != nil && drift.P99 > 0 {
		fmt.Fprintf(w, "drift vs rr: on-path reprogram stalls %d -> %d, p99 %.2fx lower\n",
			rr.ReprogramOnPath, drift.ReprogramOnPath, rr.P99/drift.P99)
	}
}
