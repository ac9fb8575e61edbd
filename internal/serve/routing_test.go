package serve

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"odin/internal/check"
	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/policy"
	"odin/internal/rng"
	"odin/internal/telemetry"
)

// routingCase is one shape of a two-model routing replay: the fleet, its
// routing and admission knobs, the offered load and the churn schedule.
type routingCase struct {
	Seed       uint64
	Chips      int
	Requests   int
	Router     string
	Tenants    bool    // a quota tenant, a priority tenant and the default class
	Margin     float64 // Config.DriftMargin (0 = default)
	QueueDepth int
	MaxBatch   int
	Load       float64 // offered rate as a multiple of one model's fleet capacity
	Churn      int     // hot remove+add pairs spread over the trace
	Workers    int
}

// routingModels are the two workloads of a routing replay. The second has
// one layer fewer, so the two models differ in service latency and forced
// deadline and their chips fall out of step.
func routingModels() []*dnn.Model {
	b := tinyModel("tiny-b")
	b.Layers = b.Layers[:2]
	return []*dnn.Model{tinyModel("tiny-a"), b}
}

// driftProbe returns the first model's service latency and forced-reprogram
// age on the drift-accelerated platform.
func driftProbe(t testing.TB) (lat, deadline float64) {
	t.Helper()
	sys := driftSystem()
	wl, err := sys.Prepare(routingModels()[0])
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewController(sys, wl, policy.New(policy.Config{Grid: sys.Grid(), Seed: 1}), core.ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl.RunInference(0).Latency, ctrl.ForcedReprogramAge()
}

// routingServer builds rc's fleet, unstarted, with its trace and fleet-op
// schedule. Chip i hosts model i%2 and is back-dated by i/Chips of the
// forced deadline, so chips cross the drift margin throughout the trace;
// churn removes distinct seed chips and adds chips of both models, each
// back-dated half a deadline.
func routingServer(t testing.TB, rc routingCase) (*Server, *clock.Virtual, Trace, []FleetOp) {
	t.Helper()
	lat, deadline := driftProbe(t)
	sys := driftSystem()
	models := routingModels()
	clk := clock.NewVirtual(0)
	cfg := Config{
		Clock:       clk,
		System:      &sys,
		Router:      rc.Router,
		DriftMargin: rc.Margin,
		QueueDepth:  rc.QueueDepth,
		MaxBatch:    rc.MaxBatch,
		Workers:     rc.Workers,
		Registry:    telemetry.NewRegistry(),
	}
	tenants := []string(nil)
	if rc.Tenants {
		cfg.Tenants = []TenantConfig{
			{Name: "bulk", Quota: max(1, rc.Chips*rc.QueueDepth/4)},
			{Name: "gold", Priority: 1},
		}
		tenants = []string{"bulk", "gold", ""}
	}
	for i := 0; i < rc.Chips; i++ {
		cfg.Chips = append(cfg.Chips, ChipConfig{
			Custom:       models[i%2],
			Seed:         uint64(i) + 1,
			ProgrammedAt: -deadline * float64(i) / float64(rc.Chips),
		})
	}
	tr, err := GenTrace(TraceConfig{
		Seed:     rc.Seed,
		Rate:     rc.Load * float64(rc.Chips) / lat,
		Requests: rc.Requests,
		Models:   []string{models[0].Name, models[1].Name},
		Tenants:  tenants,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ops []FleetOp
	victims := rng.New(rc.Seed).Perm(rc.Chips)
	for k := 0; k < rc.Churn && k < rc.Chips; k++ {
		after := (k + 1) * rc.Requests / (rc.Churn + 1)
		ops = append(ops,
			FleetOp{After: after, Remove: victims[k]},
			FleetOp{After: after, Add: &ChipConfig{
				Custom: models[k%2], Seed: uint64(rc.Chips+k) + 1, ProgrammedAt: -deadline / 2,
			}})
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, clk, tr, ops
}

// routingSummary replays rc and renders its decision-log checksum with the
// routing and admission counters the log does not show.
func routingSummary(t *testing.T, rc routingCase) string {
	t.Helper()
	s, clk, tr, ops := routingServer(t, rc)
	s.Start()
	res := ReplayOps(s, clk, tr, ops)
	var expo bytes.Buffer
	if err := s.Registry().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	count := func(series string) int {
		return int(sampleValue(t, expo.Bytes(), series))
	}
	return fmt.Sprintf("checksum=%#016x admitted=%d shed=%d quota=%d evicted=%d steered=%d maintenance=%d onpath=%d",
		res.Checksum, res.Admitted, res.Shed,
		count("odinserve_quota_shed_total"), count("odinserve_evicted_total"),
		count("odinserve_steered_total"), count("odinserve_maintenance_reprograms_total"),
		count("odinserve_reprogram_on_path_requests_total"))
}

// TestRoutingDecisionsPinned pins the exact routers' decisions at fleet
// sizes where a routing index matters: {least, drift} × {no tenants, quota
// and priority tenants} at 8 and 256 chips, each offered 1.2 times capacity with
// hot adds and removals, checked at 1 and 8 workers. The values were
// produced by the full-scan dispatcher that preceded the routing index.
func TestRoutingDecisionsPinned(t *testing.T) {
	t.Parallel()
	want := map[string]string{
		"least/chips8/tenants=false":   "checksum=0x345934b82b46ac1f admitted=485 shed=715 quota=0 evicted=0 steered=0 maintenance=0 onpath=75",
		"least/chips8/tenants=true":    "checksum=0x460374914b21485f admitted=482 shed=718 quota=252 evicted=63 steered=0 maintenance=0 onpath=74",
		"drift/chips8/tenants=false":   "checksum=0xac441de1730c68e2 admitted=505 shed=695 quota=0 evicted=0 steered=794 maintenance=15 onpath=18",
		"drift/chips8/tenants=true":    "checksum=0x4f39828651b326ef admitted=506 shed=694 quota=233 evicted=84 steered=630 maintenance=17 onpath=12",
		"least/chips256/tenants=false": "checksum=0xcda6ca1687420378 admitted=2792 shed=280 quota=0 evicted=0 steered=0 maintenance=0 onpath=288",
		"least/chips256/tenants=true":  "checksum=0x2bc94b76dcbacfbc admitted=2534 shed=538 quota=500 evicted=0 steered=0 maintenance=0 onpath=224",
		"drift/chips256/tenants=false": "checksum=0xa6ad5a597b7a3678 admitted=2669 shed=403 quota=0 evicted=0 steered=2819 maintenance=96 onpath=24",
		"drift/chips256/tenants=true":  "checksum=0x83ed697dffc543ee admitted=2535 shed=537 quota=537 evicted=0 steered=2241 maintenance=98 onpath=19",
	}
	// The 8-chip trace spans more than one forced deadline, so every chip
	// crosses the margin at least once; the 256-chip one catches the
	// crossings of a wide stagger.
	for _, size := range []struct{ chips, requests int }{{8, 1200}, {256, 3072}} {
		for _, router := range []string{"least", "drift"} {
			for _, tenants := range []bool{false, true} {
				name := fmt.Sprintf("%s/chips%d/tenants=%t", router, size.chips, tenants)
				rc := routingCase{
					Seed: 3, Chips: size.chips, Requests: size.requests, Router: router,
					Tenants: tenants, QueueDepth: 4, MaxBatch: 4, Load: 1.2, Churn: 3,
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					for _, workers := range []int{1, 8} {
						rc.Workers = workers
						got := routingSummary(t, rc)
						if w := want[name]; got != w {
							t.Errorf("workers=%d:\n got %s\nwant %s", workers, got, w)
						}
					}
				})
			}
		}
	}
}

func genRoutingCase() check.Gen[routingCase] {
	return check.Gen[routingCase]{
		Generate: func(t *check.T) routingCase {
			rc := routingCase{
				Seed:       t.Rng.Uint64(),
				Chips:      1 + t.Rng.Intn(64),
				Requests:   1 + t.Rng.Intn(400),
				Router:     []string{"least", "drift"}[t.Rng.Intn(2)],
				Tenants:    t.Rng.Intn(2) == 0,
				QueueDepth: 1 + t.Rng.Intn(8),
				MaxBatch:   1 + t.Rng.Intn(8),
				Load:       0.2 + 3*t.Rng.Float64(), // idle to heavily shedding
				Churn:      t.Rng.Intn(5),
				Workers:    1 + t.Rng.Intn(4),
			}
			if t.Rng.Intn(2) == 0 {
				rc.Margin = 0.05 + 0.9*t.Rng.Float64()
			}
			return rc
		},
		Shrink: func(rc routingCase) []routingCase {
			var out []routingCase
			mutInt := func(v, toward int, set func(*routingCase, int)) {
				for _, s := range check.ShrinkInt(v, toward) {
					m := rc
					set(&m, s)
					out = append(out, m)
				}
			}
			mutInt(rc.Requests, 1, func(m *routingCase, v int) { m.Requests = v })
			mutInt(rc.Chips, 1, func(m *routingCase, v int) { m.Chips = v })
			mutInt(rc.Churn, 0, func(m *routingCase, v int) { m.Churn = v })
			mutInt(rc.QueueDepth, 1, func(m *routingCase, v int) { m.QueueDepth = v })
			mutInt(rc.MaxBatch, 1, func(m *routingCase, v int) { m.MaxBatch = v })
			mutInt(rc.Workers, 1, func(m *routingCase, v int) { m.Workers = v })
			return out
		},
	}
}

// TestPropRoutingIndexMatchesScan checks the routing index against the full
// scan it replaced. At every exact routing decision of random two-model
// replays — after the exact advance, and again after maintenance — scanCheck
// recomputes the pick, the maintenance candidates and the steered verdict
// from exact chip state and compares them with the index's answers, over
// fleets of 1–64 chips, both exact routers, random drift margins, queue
// depths and batch caps, quotas on and off, and hot adds and removals.
func TestPropRoutingIndexMatchesScan(t *testing.T) {
	t.Parallel()
	decisions := 0
	check.Run(t, genRoutingCase(), func(rc routingCase) error {
		s, clk, tr, ops := routingServer(t, rc)
		var failure error
		s.checkRoute = func(mi *modelIndex, at float64) {
			decisions++
			if failure == nil {
				failure = scanCheck(s, mi, at)
			}
		}
		s.Start()
		res := ReplayOps(s, clk, tr, ops)
		if failure != nil {
			return failure
		}
		if got := res.Admitted + res.Shed + res.Errors + res.Rejected; got != len(tr) {
			return fmt.Errorf("conservation broken: %d of %d requests accounted", got, len(tr))
		}
		return nil
	})
	if decisions == 0 {
		t.Fatal("no routing decision reached the check")
	}
}

// scanCheck is the scan-based dispatcher's routing, kept as a reference:
// over the hosts of mi at arrival time t it checks that every chip the
// decision reads is exact at t, then recomputes each host's near verdict
// (from its controller) and load, the (near, load, id) minimum, the idle,
// empty near hosts in id order, and the steered rule, and compares them
// with the index.
func scanCheck(s *Server, mi *modelIndex, t float64) error {
	scope := mi.chips
	if s.quotaOn {
		scope = nil
		for _, c := range s.chips {
			if !c.removed {
				scope = append(scope, c)
			}
		}
	}
	for _, c := range scope {
		if b := c.inflight; b != nil && !b.done {
			return fmt.Errorf("t=%g: chip %d batch %d unobserved after the exact advance", t, c.id, b.id)
		} else if b != nil && b.finish <= t {
			return fmt.Errorf("t=%g: chip %d batch %d finished at %g but not retired", t, c.id, b.id, b.finish)
		} else if b == nil && len(c.pending) > 0 && math.Max(c.freeAt, c.pending[0].Arrival) <= t {
			return fmt.Errorf("t=%g: chip %d holds a batch due at %g but not started", t, c.id,
				math.Max(c.freeAt, c.pending[0].Arrival))
		}
	}
	near := func(c *chip) bool {
		if s.router != routeDrift {
			return false
		}
		d := c.ctrl.ForcedReprogramAge()
		return !math.IsInf(d, 1) && c.ctrl.Age(t) >= s.margin*d
	}
	load := func(c *chip) int {
		l := len(c.pending)
		if c.inflight != nil || c.freeAt > t {
			l++
		}
		return l
	}
	hosts := mi.chips
	best := 0
	bestNear, bestLoad := near(hosts[0]), load(hosts[0])
	for i := 1; i < len(hosts); i++ {
		n, l := near(hosts[i]), load(hosts[i])
		if n != bestNear {
			if bestNear {
				best, bestNear, bestLoad = i, n, l
			}
			continue
		}
		if l < bestLoad {
			best, bestLoad = i, l
		}
	}
	var maint []int
	nears := 0
	for _, c := range hosts {
		n, l := near(c), load(c)
		if c.near != n || c.load != l {
			return fmt.Errorf("t=%g: chip %d keyed (near %t, load %d), exact state (near %t, load %d)",
				t, c.id, c.near, c.load, n, l)
		}
		if n {
			nears++
			if l == 0 {
				maint = append(maint, c.id)
			}
		}
	}
	if len(mi.route.cs) != len(hosts) || len(mi.due.cs) > len(hosts) {
		return fmt.Errorf("t=%g: index holds %d routed and %d timed chips for %d hosts",
			t, len(mi.route.cs), len(mi.due.cs), len(hosts))
	}
	if pick := mi.route.cs[0]; pick != hosts[best] {
		return fmt.Errorf("t=%g: index picks chip %d, scan picks chip %d", t, pick.id, hosts[best].id)
	}
	var indexed []int
	for _, c := range mi.maint.cs {
		indexed = append(indexed, c.id)
	}
	slices.Sort(indexed)
	if !slices.Equal(indexed, maint) {
		return fmt.Errorf("t=%g: index maintains chips %v, scan maintains %v", t, indexed, maint)
	}
	if mi.near != nears {
		return fmt.Errorf("t=%g: index counts %d near hosts, scan %d", t, mi.near, nears)
	}
	// The scan steered when its pick was not near but some host was.
	scanSteered := !bestNear && nears > 0
	if indexSteered := !mi.route.cs[0].near && mi.near > 0; indexSteered != scanSteered {
		return fmt.Errorf("t=%g: index steered=%t, scan steered=%t", t, indexSteered, scanSteered)
	}
	return nil
}

// TestNearFromIsExactCrossing pins the crossing time the index keys the
// drift verdict on to the float64 at which the scan's near test flips: the
// test holds at nearAt and fails one float64 earlier, and an arrival landing
// exactly on nearAt finds the idle chip near and maintains it, while one a
// float64 earlier does not.
func TestNearFromIsExactCrossing(t *testing.T) {
	t.Parallel()
	sys := driftSystem()
	build := func(margin, programmedAt float64) (*Server, *clock.Virtual) {
		clk := clock.NewVirtual(0)
		s, err := NewServer(Config{Clock: clk, System: &sys, Router: "drift", DriftMargin: margin,
			Chips: []ChipConfig{{Custom: tinyModel("tiny"), Seed: 1, ProgrammedAt: programmedAt}}})
		if err != nil {
			t.Fatal(err)
		}
		return s, clk
	}
	for _, margin := range []float64{0.3, 0.85, 0.99} {
		for _, programmedAt := range []float64{0, -5e-6, 2e-6} {
			s, _ := build(margin, programmedAt)
			c := s.chips[0]
			at := c.nearAt
			limit := s.margin * c.ctrl.ForcedReprogramAge()
			before := math.Nextafter(at, math.Inf(-1))
			if math.IsInf(at, 0) || c.ctrl.Age(at) < limit || c.ctrl.Age(before) >= limit {
				t.Fatalf("margin %g, programmed at %g: crossing %g is not where Age reaches %g (Age %g there, %g one float64 earlier)",
					margin, programmedAt, at, limit, c.ctrl.Age(at), c.ctrl.Age(before))
			}
			if before < 0 {
				continue // arrivals before the clock's start are clamped to it
			}
			for passes, arrival := range []float64{before, at} {
				s, clk := build(margin, programmedAt)
				s.Start()
				clk.Set(arrival)
				s.Submit("tiny")
				s.Close()
				var expo bytes.Buffer
				if err := s.Registry().WritePrometheus(&expo); err != nil {
					t.Fatal(err)
				}
				if got := sampleValue(t, expo.Bytes(), "odinserve_maintenance_reprograms_total"); got != float64(passes) {
					t.Errorf("margin %g, programmed at %g: arrival at %g (crossing %g) took %g maintenance passes, want %d",
						margin, programmedAt, arrival, at, got, passes)
				}
			}
		}
	}
}
