package serve

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"odin/internal/accuracy"
	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/reram"
)

// fleetReplay builds a fresh fleet on a fresh virtual clock and replays tr
// through it with the given router and fleet-op schedule.
func fleetReplay(t testing.TB, tr Trace, chips, workers int, router string, ops []FleetOp) ReplayResult {
	t.Helper()
	clk := clock.NewVirtual(0)
	cfg := Config{
		Clock:      clk,
		QueueDepth: 4,
		MaxBatch:   4,
		Workers:    workers,
		Router:     router,
	}
	for i := 0; i < chips; i++ {
		cfg.Chips = append(cfg.Chips, ChipConfig{Custom: tinyModel("tiny"), Seed: uint64(i) + 1})
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	return ReplayOps(s, clk, tr, ops)
}

// driftSystem accelerates conductance drift so forced-reprogram deadlines
// land inside a microseconds-scale trace: Nu=2 steepens the power law and
// the small T0 shrinks the deadline to ~2.9e-5 s (~60 service latencies of
// the tiny model), while the faster write pulses shrink the reprogram
// stall from ~1000 service latencies to ~5. The stall must stay well
// under the steering window (1-margin)·deadline, or a chip entering the
// margin while its peer is mid-maintenance is forced over the deadline
// before its own idle window arrives.
func driftSystem() core.System {
	dev := reram.DefaultDeviceParams()
	dev.Nu = 2
	dev.T0 = 5e-6
	dev.WriteLatencyPerCell = 0.2e-9
	sys := core.DefaultSystem()
	sys.Device = dev
	sys.Acc = accuracy.Default(dev)
	return sys
}

// churnOps is the standard lifecycle schedule for a replayed trace of n
// arrivals over a fleet of `chips` seed chips: two hot adds a third of the
// way in, then chip 1 drained and removed at two thirds — while, under an
// overload trace, it still holds pending requests and an in-flight batch.
func churnOps(n, chips int) []FleetOp {
	return []FleetOp{
		{After: n / 3, Add: &ChipConfig{Custom: tinyModel("tiny"), Seed: uint64(chips) + 1}},
		{After: n / 3, Add: &ChipConfig{Custom: tinyModel("tiny"), Seed: uint64(chips) + 2}},
		{After: 2 * n / 3, Remove: 1},
	}
}

// TestPropFleetChurnDeterministic is the tentpole acceptance property:
// replay checksums are byte-identical across worker counts {1, 8} at fleet
// sizes {2, 64, 1024}, with chips hot-added and a loaded chip removed
// mid-trace, and request conservation (admitted + shed + errors + rejected
// = submitted) holds throughout the churn.
func TestPropFleetChurnDeterministic(t *testing.T) {
	t.Parallel()
	lat := probeLatency(t)
	for _, fleet := range []int{2, 64, 1024} {
		fleet := fleet
		t.Run(fmt.Sprintf("fleet%d", fleet), func(t *testing.T) {
			t.Parallel()
			// Round-robin spreads arrivals perfectly evenly, so overflowing a
			// depth-4 queue needs >5 near-simultaneous requests per chip:
			// 8 per chip at ~8x fleet capacity sheds on every fleet size.
			n := fleet * 8
			tr, err := GenTrace(TraceConfig{
				Seed:     uint64(fleet),
				Rate:     8 * float64(fleet) / lat,
				Requests: n,
				Models:   []string{"tiny"},
			})
			if err != nil {
				t.Fatal(err)
			}
			ops := churnOps(n, fleet)

			base := fleetReplay(t, tr, fleet, 1, "rr", ops)
			if got := base.Admitted + base.Shed + base.Errors + base.Rejected; got != n {
				t.Fatalf("conservation broken under churn: %d+%d+%d+%d = %d, submitted %d",
					base.Admitted, base.Shed, base.Errors, base.Rejected, got, n)
			}
			if base.Rejected != 0 || base.Errors != 0 {
				t.Fatalf("churn replay rejected %d, errored %d; want 0/0", base.Rejected, base.Errors)
			}
			if base.Shed == 0 {
				t.Error("overload churn trace shed nothing; admission under churn untested")
			}
			var baseLog bytes.Buffer
			if err := base.WriteLog(&baseLog); err != nil {
				t.Fatal(err)
			}

			got := fleetReplay(t, tr, fleet, 8, "rr", ops)
			if got.Checksum != base.Checksum {
				t.Errorf("workers=8 checksum %#x, want %#x", got.Checksum, base.Checksum)
			}
			var log bytes.Buffer
			if err := got.WriteLog(&log); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(log.Bytes(), baseLog.Bytes()) {
				t.Error("workers=8 decision log differs from workers=1 under fleet churn")
			}
			if math.Float64bits(got.Energy) != math.Float64bits(base.Energy) ||
				math.Float64bits(got.Latency) != math.Float64bits(base.Latency) ||
				math.Float64bits(got.Wait) != math.Float64bits(base.Wait) {
				t.Error("workers=8 aggregate figures not bit-identical under fleet churn")
			}
		})
	}
}

// TestPropExactRouterChurnDeterministic extends the churn property to the
// exact routers: occupancy- and drift-scored picks must also replay
// byte-identically at every worker count, because the dispatcher advances
// every candidate to the arrival time before scoring.
func TestPropExactRouterChurnDeterministic(t *testing.T) {
	t.Parallel()
	lat := probeLatency(t)
	const fleet, n = 8, 96
	tr, err := GenTrace(TraceConfig{
		Seed:     17,
		Rate:     2 * fleet / lat,
		Requests: n,
		Models:   []string{"tiny"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, router := range []string{"least", "drift"} {
		router := router
		t.Run(router, func(t *testing.T) {
			t.Parallel()
			ops := churnOps(n, fleet)
			base := fleetReplay(t, tr, fleet, 1, router, ops)
			for _, workers := range []int{4, 8} {
				got := fleetReplay(t, tr, fleet, workers, router, ops)
				if got.Checksum != base.Checksum {
					t.Errorf("router %s workers=%d checksum %#x, want %#x",
						router, workers, got.Checksum, base.Checksum)
				}
			}
			if got := base.Admitted + base.Shed + base.Errors; got != n {
				t.Errorf("router %s conservation: %d of %d accounted", router, got, n)
			}
		})
	}
}

// TestRemoveChipMidFlight pins the exactly-once drain contract through
// removal: a chip retired while it holds an in-flight batch and queued
// requests still answers every one of them, and removing the last host of a
// model turns later arrivals into routing errors (a simulated outage).
func TestRemoveChipMidFlight(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 2, Config{QueueDepth: 4, MaxBatch: 2})

	// All at t=0: round-robin interleaves, so chip 0 owns requests 0,2,4 —
	// one dispatched immediately (in flight) and two queued behind it.
	var chans []<-chan Response
	for i := 0; i < 6; i++ {
		chans = append(chans, s.Submit("tiny"))
	}
	if err := s.RemoveChip(0); err != nil {
		t.Fatalf("RemoveChip(0): %v", err)
	}
	// The removed chip's requests are already answered (exactly once).
	answered := map[int]Response{}
	for _, i := range []int{0, 2, 4} {
		select {
		case r := <-chans[i]:
			answered[i] = r
			if r.Shed || r.Err != "" || r.Chip != 0 {
				t.Errorf("request %d on removed chip answered %+v, want served by chip 0", i, r)
			}
		default:
			t.Errorf("request %d not answered by the removal drain", i)
		}
	}
	if err := s.RemoveChip(0); err == nil {
		t.Error("double remove accepted")
	}
	if err := s.RemoveChip(9); err == nil {
		t.Error("remove of unknown chip accepted")
	}

	// Chip 1 still hosts the model; new arrivals route there.
	okCh := s.Submit("tiny")
	// Remove the last host: the model goes dark.
	if err := s.RemoveChip(1); err != nil {
		t.Fatalf("RemoveChip(1): %v", err)
	}
	darkCh := s.Submit("tiny")

	info, err := s.FleetInfo()
	if err != nil {
		t.Fatalf("FleetInfo: %v", err)
	}
	if len(info) != 2 || !info[0].Removed || !info[1].Removed {
		t.Fatalf("FleetInfo after removals = %+v, want both chips present and removed", info)
	}
	s.Close()

	for i, ch := range chans {
		if _, ok := answered[i]; ok {
			continue // consumed above; exactly-once means the channel is empty now
		}
		select {
		case r := <-ch:
			if r.Err != "" {
				t.Errorf("request %d errored: %q", i, r.Err)
			}
		default:
			t.Errorf("request %d never answered", i)
		}
	}
	if r := <-okCh; r.Shed || r.Err != "" || r.Chip != 1 {
		t.Errorf("post-removal request answered %+v, want served by chip 1", r)
	}
	if r := <-darkCh; r.Err == "" || !strings.Contains(r.Err, "unknown model") {
		t.Errorf("request after last host removed answered %+v, want unknown-model error", r)
	}

	stats := s.Stats()
	if len(stats) != 2 {
		t.Fatalf("Stats kept %d chips, want both removed chips", len(stats))
	}
	if stats[0].Served != 3 || !stats[0].Removed {
		t.Errorf("chip 0 stats %+v, want Served 3 and Removed", stats[0])
	}
}

// TestAddChipExpandsRouting pins hot add: a new model becomes routable the
// moment AddChip returns, and an added same-model chip joins the rotation.
func TestAddChipExpandsRouting(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{QueueDepth: 8})

	before := s.Submit("tiny2") // not hosted yet
	id, err := s.AddChip(ChipConfig{Custom: tinyModel("tiny2")})
	if err != nil {
		t.Fatalf("AddChip: %v", err)
	}
	if id != 1 {
		t.Fatalf("added chip id %d, want 1 (monotone, never reused)", id)
	}
	after := s.Submit("tiny2")

	// A same-model add joins the existing rotation.
	id2, err := s.AddChip(ChipConfig{Custom: tinyModel("tiny")})
	if err != nil {
		t.Fatalf("AddChip: %v", err)
	}
	var tinyChans []<-chan Response
	for i := 0; i < 4; i++ {
		tinyChans = append(tinyChans, s.Submit("tiny"))
	}
	s.Close()

	if r := <-before; r.Err == "" {
		t.Errorf("pre-add submission answered %+v, want unknown-model error", r)
	}
	if r := <-after; r.Err != "" || r.Shed || r.Chip != 1 {
		t.Errorf("post-add submission answered %+v, want served by chip 1", r)
	}
	seen := map[int]bool{}
	for i, ch := range tinyChans {
		r := <-ch
		if r.Err != "" || r.Shed {
			t.Fatalf("tiny request %d not served: %+v", i, r)
		}
		seen[r.Chip] = true
	}
	if !seen[0] || !seen[id2] {
		t.Errorf("tiny rotation used chips %v, want both 0 and %d", seen, id2)
	}
	if _, err := s.AddChip(ChipConfig{}); err == nil {
		t.Error("AddChip with no model accepted")
	}
}

// TestLiveHotAddFleetGrowthNoDeadlock regression-tests the Live-mode wake
// path against hot fleet growth. The completion signal used to be a
// channel sized to the seed fleet (one slot per NewServer chip); once
// AddChip grew the fleet past that, concurrently finishing workers could
// fill it and block on the wake send while the dispatcher blocked handing
// the next batch to the (also seed-sized) jobs channel — with nothing
// draining either channel, a permanent deadlock. The hint is now a
// mutex-guarded woken set plus a non-blocking 1-slot notify, so the worker
// side can never block at any fleet size. Grow a 1-chip seed fleet to 9
// chips under concurrent load and require Close to return with every
// submission answered.
func TestLiveHotAddFleetGrowthNoDeadlock(t *testing.T) {
	t.Parallel()
	for round := 0; round < 5; round++ {
		s, _ := tinyServer(t, 1, Config{QueueDepth: 64, MaxBatch: 2, Workers: 4, Live: true})
		var chans []<-chan Response
		for i := 0; i < 8; i++ {
			if _, err := s.AddChip(ChipConfig{Custom: tinyModel("tiny")}); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 16; j++ {
				chans = append(chans, s.Submit("tiny"))
			}
		}
		closed := make(chan struct{})
		go func() { s.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatal("Close deadlocked after hot fleet growth in Live mode")
		}
		for i, ch := range chans {
			select {
			case r := <-ch:
				if r.Err != "" {
					t.Fatalf("round %d request %d errored: %q", round, i, r.Err)
				}
			default:
				t.Fatalf("round %d request %d has no response after drain", round, i)
			}
		}
	}
}

// TestFleetOpsAfterCloseFail pins the control plane's draining behavior.
func TestFleetOpsAfterCloseFail(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{})
	s.Close()
	if _, err := s.AddChip(ChipConfig{Custom: tinyModel("tiny")}); err == nil {
		t.Error("AddChip after Close accepted")
	}
	if err := s.RemoveChip(0); err == nil {
		t.Error("RemoveChip after Close accepted")
	}
	if _, err := s.FleetInfo(); err == nil {
		t.Error("FleetInfo after Close accepted")
	}
}

// TestLeastLoadedPrefersIdle pins the "least" policy against the round-robin
// baseline: with arrivals spaced wider than the service latency, chip 0 is
// always idle again by the next arrival, so least-loaded keeps serving
// everything on chip 0 while round-robin alternates.
func TestLeastLoadedPrefersIdle(t *testing.T) {
	t.Parallel()
	lat := probeLatency(t)
	run := func(router string) []Response {
		clk := clock.NewVirtual(0)
		cfg := Config{Clock: clk, QueueDepth: 8, Router: router,
			Chips: []ChipConfig{
				{Custom: tinyModel("tiny"), Seed: 1},
				{Custom: tinyModel("tiny"), Seed: 2},
			}}
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		var chans []<-chan Response
		for i := 0; i < 6; i++ {
			clk.Set(float64(i) * 2 * lat)
			chans = append(chans, s.Submit("tiny"))
		}
		s.Close()
		out := make([]Response, len(chans))
		for i, ch := range chans {
			out[i] = <-ch
		}
		return out
	}
	for i, r := range run("least") {
		if r.Shed || r.Err != "" || r.Chip != 0 {
			t.Errorf("least: spaced request %d answered %+v, want chip 0 (always idle)", i, r)
		}
	}
	for i, r := range run("rr") {
		if want := i % 2; r.Chip != want {
			t.Errorf("rr: spaced request %d on chip %d, want alternating %d", i, r.Chip, want)
		}
	}
}

// TestDriftRouterSteersAndMaintains is the drift policy's behavioral pin,
// on a drift-accelerated system where the forced-reprogram deadline is ~24
// service latencies. The two chips' drift phases are staggered half a
// deadline apart (ProgrammedAt — synchronized phases would stall both
// chips at once and the backlog would mask the next maintenance window),
// so at any moment one chip is fresh: the drift router steers arrivals to
// it and gives the aged one its write pass off-path while idle. Result:
// zero forced (on-path) reprograms, while the same schedule under
// round-robin carries reprogram stalls on live batches.
func TestDriftRouterSteersAndMaintains(t *testing.T) {
	t.Parallel()
	sys := driftSystem()
	run := func(router string) (*Server, []Response) {
		clk := clock.NewVirtual(0)
		cfg := Config{Clock: clk, QueueDepth: 8, Router: router, System: &sys,
			Chips: []ChipConfig{
				{Custom: tinyModel("tiny"), Seed: 1},
				{Custom: tinyModel("tiny"), Seed: 2, ProgrammedAt: -1.46e-5}, // half a deadline older
			}}
		s, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		var chans []<-chan Response
		for i := 0; i < 120; i++ {
			clk.Set(float64(i) * 1e-6) // ~2 service latencies apart; 120 µs spans ~4 deadlines
			chans = append(chans, s.Submit("tiny"))
		}
		s.Close()
		out := make([]Response, len(chans))
		for i, ch := range chans {
			out[i] = <-ch
		}
		return s, out
	}

	s, responses := run("drift")
	for i, r := range responses {
		if r.Shed || r.Err != "" {
			t.Fatalf("drift: request %d not served: %+v", i, r)
		}
		if r.Reprogrammed {
			t.Errorf("drift: request %d carried an on-path reprogram stall; maintenance should have pre-empted it", i)
		}
	}
	var sb strings.Builder
	if err := s.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "odinserve_maintenance_reprograms_total 0\n") {
		t.Error("drift: no off-path maintenance pass ran across ~4 deadline crossings")
	}
	if !strings.Contains(out, "odinserve_reprogram_on_path_requests_total 0\n") {
		t.Errorf("drift: on-path reprogram counter not zero:\n%s", out)
	}

	_, rrResponses := run("rr")
	forced := 0
	for _, r := range rrResponses {
		if r.Reprogrammed {
			forced++
		}
	}
	if forced == 0 {
		t.Error("rr baseline never hit a forced reprogram on this schedule; drift comparison is vacuous")
	}
}

// TestDriftRouterSteersAwayFromLoadedNearChip pins the steering half of
// the drift policy: a chip that crosses the margin while it still holds
// queued work cannot take its maintenance pass (that would preempt live
// requests), so the router routes new arrivals to a fresher peer even
// though the near chip is less loaded — and the steered counter books it.
func TestDriftRouterSteersAwayFromLoadedNearChip(t *testing.T) {
	t.Parallel()
	sys := driftSystem()
	lat := probeLatency(t)

	// Forced deadline of the tiny model on this system (min over layers at
	// the smallest OU), to place chip 1's margin crossing mid-burst.
	smallest := sys.Grid().SizeAt(0, 0)
	deadline := math.Inf(1)
	for j := 0; j < 3; j++ {
		if d := sys.Acc.ReprogramDeadline(j, 3, smallest); d < deadline {
			deadline = d
		}
	}
	// Back-date chip 1 so its age hits margin·deadline at t = lat — after
	// the t=0 burst has loaded it, before the burst drains.
	programmedAt := -(DefaultDriftMargin*deadline - sys.Device.T0 - lat)

	clk := clock.NewVirtual(0)
	cfg := Config{Clock: clk, QueueDepth: 8, Router: "drift", System: &sys,
		Chips: []ChipConfig{
			{Custom: tinyModel("tiny"), Seed: 1},
			{Custom: tinyModel("tiny"), Seed: 2, ProgrammedAt: programmedAt},
		}}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	// Burst at t=0: least-loaded ties alternate the fleet, so chip 1 ends
	// up with ~3 requests ≈ 3 service latencies of committed work.
	for i := 0; i < 6; i++ {
		s.Submit("tiny")
	}
	// Probe arrival at 2·lat: chip 1 is past its margin but still working,
	// so it cannot be maintained and must be steered around.
	clk.Set(2 * lat)
	probe := s.Submit("tiny")
	s.Close()
	if r := <-probe; r.Shed || r.Err != "" || r.Chip != 0 {
		t.Errorf("probe arrival answered %+v, want served by fresh chip 0", r)
	}
	var sb strings.Builder
	if err := s.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "odinserve_steered_total 0\n") {
		t.Error("steered counter did not book the routed-around near chip")
	}
}

// TestProgrammedAtStaggersAges pins the fleet-staggering knob: a chip
// back-dated by ProgrammedAt starts the trace older, so its forced deadline
// arrives earlier than an identically configured fresh chip's.
func TestProgrammedAtStaggersAges(t *testing.T) {
	t.Parallel()
	clk := clock.NewVirtual(0)
	cfg := Config{Clock: clk, Router: "least",
		Chips: []ChipConfig{
			{Custom: tinyModel("tiny"), Seed: 1},
			{Custom: tinyModel("tiny"), Seed: 2, ProgrammedAt: -5},
		}}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	info, err := s.FleetInfo()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(info) != 2 {
		t.Fatalf("FleetInfo returned %d chips", len(info))
	}
	if got := info[1].Age - info[0].Age; math.Abs(got-5) > 1e-12 {
		t.Errorf("back-dated chip is %g older, want 5 (ages %g vs %g)", got, info[1].Age, info[0].Age)
	}
	if info[0].DeadlineAge != info[1].DeadlineAge {
		t.Errorf("identical chips disagree on deadline: %g vs %g", info[0].DeadlineAge, info[1].DeadlineAge)
	}
}

// TestTenantQuotaSheds pins fleet-wide quota admission: a tenant with quota
// 2 can hold at most two virtually outstanding requests; the rest shed with
// the quota counter, while another tenant is unaffected.
func TestTenantQuotaSheds(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{QueueDepth: 8, MaxBatch: 1,
		Tenants: []TenantConfig{{Name: "metered", Quota: 2}}})
	var metered, free []<-chan Response
	for i := 0; i < 5; i++ {
		metered = append(metered, s.SubmitAs("tiny", "metered"))
	}
	for i := 0; i < 2; i++ {
		free = append(free, s.SubmitAs("tiny", "unmetered"))
	}
	s.Close()

	var served, shed int
	for i, ch := range metered {
		r := <-ch
		switch {
		case r.Err != "":
			t.Fatalf("metered request %d errored: %q", i, r.Err)
		case r.Shed:
			shed++
		default:
			served++
		}
	}
	if served != 2 || shed != 3 {
		t.Errorf("metered tenant served %d, shed %d; want 2 served, 3 quota-shed", served, shed)
	}
	for i, ch := range free {
		if r := <-ch; r.Shed || r.Err != "" {
			t.Errorf("unmetered request %d answered %+v, want served", i, r)
		}
	}
	var sb strings.Builder
	if err := s.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"odinserve_quota_shed_total 3",
		`odinserve_tenant_shed_total{tenant="metered"} 3`,
		`odinserve_tenant_admitted_total{tenant="metered"} 2`,
		`odinserve_tenant_admitted_total{tenant="unmetered"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestTenantQuotaFreesOverTime pins that quota occupancy is virtual-time
// exact: once earlier requests virtually complete, the tenant's slots free
// up and later arrivals are admitted again.
func TestTenantQuotaFreesOverTime(t *testing.T) {
	t.Parallel()
	lat := probeLatency(t)
	clk := clock.NewVirtual(0)
	cfg := Config{Clock: clk, QueueDepth: 8, MaxBatch: 1,
		Tenants: []TenantConfig{{Name: "metered", Quota: 1}},
		Chips:   []ChipConfig{{Custom: tinyModel("tiny"), Seed: 1}}}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	a := s.SubmitAs("tiny", "metered") // t=0, admitted
	b := s.SubmitAs("tiny", "metered") // t=0, over quota
	clk.Set(10 * lat)
	c := s.SubmitAs("tiny", "metered") // a has virtually completed; admitted
	s.Close()
	if r := <-a; r.Shed || r.Err != "" {
		t.Errorf("first metered request answered %+v, want served", r)
	}
	if r := <-b; !r.Shed {
		t.Errorf("over-quota request answered %+v, want shed", r)
	}
	if r := <-c; r.Shed || r.Err != "" {
		t.Errorf("post-completion request answered %+v, want served (quota slot freed)", r)
	}
}

// TestTenantPriorityEviction pins queue preemption: at a full queue, a
// higher-priority arrival evicts the newest queued request of the lowest
// class below it; equal priorities never preempt.
func TestTenantPriorityEviction(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{QueueDepth: 2, MaxBatch: 1,
		Tenants: []TenantConfig{
			{Name: "low", Priority: 0},
			{Name: "high", Priority: 1},
		}})
	// t=0: r0 dispatches immediately; r1, r2 fill the depth-2 queue.
	var chans []<-chan Response
	for i := 0; i < 3; i++ {
		chans = append(chans, s.SubmitAs("tiny", "low"))
	}
	chans = append(chans, s.SubmitAs("tiny", "high")) // r3 evicts r2 (newest low)
	chans = append(chans, s.SubmitAs("tiny", "high")) // r4 evicts r1
	chans = append(chans, s.SubmitAs("tiny", "high")) // r5: only high queued; sheds itself
	s.Close()

	want := []struct {
		shed bool
		desc string
	}{
		{false, "dispatched before the queue filled"},
		{true, "evicted by the second high-priority arrival"},
		{true, "evicted by the first high-priority arrival"},
		{false, "admitted into the evicted slot"},
		{false, "admitted into the evicted slot"},
		{true, "shed: nothing below its class to evict"},
	}
	for i, ch := range chans {
		r := <-ch
		if r.Err != "" {
			t.Fatalf("request %d errored: %q", i, r.Err)
		}
		if r.Shed != want[i].shed {
			t.Errorf("request %d shed=%v, want %v (%s)", i, r.Shed, want[i].shed, want[i].desc)
		}
	}
	var sb strings.Builder
	if err := s.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "odinserve_evicted_total 2") {
		t.Errorf("eviction counter wrong:\n%s", sb.String())
	}
}

// TestTenantConfigValidation pins the constructor's tenant checks.
func TestTenantConfigValidation(t *testing.T) {
	t.Parallel()
	base := func() Config {
		return Config{Clock: clock.NewVirtual(0),
			Chips: []ChipConfig{{Custom: tinyModel("tiny")}}}
	}
	cfg := base()
	cfg.Tenants = []TenantConfig{{Name: "a"}, {Name: "a"}}
	if _, err := NewServer(cfg); err == nil {
		t.Error("duplicate tenant accepted")
	}
	cfg = base()
	cfg.Tenants = []TenantConfig{{Name: "a", Quota: -1}}
	if _, err := NewServer(cfg); err == nil {
		t.Error("negative quota accepted")
	}
	cfg = base()
	cfg.Router = "no-such-policy"
	if _, err := NewServer(cfg); err == nil {
		t.Error("unknown router accepted")
	}
}

// TestRejectedSentinel pins satellite 1: a submission rejected while
// draining carries the RejectedID sentinel — distinguishable from request 0
// by ID alone — plus the Rejected flag, and books the dedicated counter.
func TestRejectedSentinel(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{})
	served := s.Submit("tiny") // request 0, a real id
	s.Close()
	r := <-s.Submit("tiny")
	if r.ID != RejectedID || !r.Rejected {
		t.Errorf("draining rejection = %+v, want ID RejectedID and Rejected", r)
	}
	if r.Err == "" || !strings.Contains(r.Err, "draining") {
		t.Errorf("draining rejection error %q", r.Err)
	}
	if got := <-served; got.ID != 0 || got.Rejected {
		t.Errorf("request 0 answered %+v; sentinel must not collide with real ids", got)
	}
	var sb strings.Builder
	if err := s.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"odinserve_rejected_total 1",
		"odinserve_requests_total 2", // rejected submissions still count as requests
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestRouterRegistry pins the router names Config.Router accepts and the
// name a built server reports.
func TestRouterRegistry(t *testing.T) {
	t.Parallel()
	names := RouterNames()
	for _, want := range []string{"drift", "least", "rr"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("RouterNames() = %v, missing %q", names, want)
		}
	}
	s, _ := tinyServer(t, 1, Config{Router: "drift"})
	defer s.Close()
	if got := s.RouterName(); got != "drift" {
		t.Errorf("RouterName() = %q, want drift", got)
	}
}
