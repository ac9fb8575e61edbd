package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"time"

	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/policy"
	"odin/internal/serve"
	"odin/internal/telemetry"
)

// The replay-fleet workload: an overloaded 1024-chip fleet on a virtual
// clock. The offered rate is fleetOverload times the fleet's capacity, so
// batches fill to MaxBatch, queues fill, and the quota tenant is shed while
// the priority tenant evicts queued work. One chip is removed and one added
// every 1/16th of the trace.
const (
	fleetChips    = 1024
	fleetRequests = 16384
	fleetOverload = 16
	fleetQueue    = 8
	fleetChurns   = 16

	// The golden replay is a small fixed input checked against a committed
	// checksum on every run, whatever the run's seed.
	goldenChips    = 64
	goldenRequests = 1024
	goldenSeed     = 1
)

var fleetModels = []string{"VGG11", "ResNet18"}

// fleetInput is one generated replay: the fleet, its arrival trace and its
// hot add/remove schedule.
type fleetInput struct {
	cfg   serve.Config
	trace serve.Trace
	ops   []serve.FleetOp
}

// makeFleetInput draws a replay input from seed. Chip i alternates the two
// models and is back-dated by i/chips of the shortest forced-reprogram
// deadline, so every drift phase is present at once and the drift router
// steers and schedules maintenance passes from the first arrival on.
func makeFleetInput(chips, requests int, seed uint64) (*fleetInput, error) {
	sys := core.DefaultSystem()
	var lat, deadline float64
	for _, name := range fleetModels {
		l, d, err := probeModel(sys, name)
		if err != nil {
			return nil, err
		}
		lat = max(lat, l)
		if deadline == 0 || d < deadline {
			deadline = d
		}
	}
	in := &fleetInput{cfg: serve.Config{
		Router: "drift",
		Tenants: []serve.TenantConfig{
			{Name: "bulk", Quota: chips * fleetQueue / 2},
			{Name: "gold", Priority: 1},
		},
		QueueDepth: fleetQueue,
		MaxBatch:   8,
	}}
	for i := 0; i < chips; i++ {
		in.cfg.Chips = append(in.cfg.Chips, serve.ChipConfig{
			Model:        fleetModels[i%len(fleetModels)],
			Seed:         uint64(i) + 1,
			ProgrammedAt: -deadline * float64(i) / float64(chips),
		})
	}
	tr, err := serve.GenTrace(serve.TraceConfig{
		Seed: seed, Rate: fleetOverload * float64(chips) / lat, Requests: requests,
		Models: fleetModels, Tenants: []string{"bulk", "gold"},
	})
	if err != nil {
		return nil, err
	}
	in.trace = tr
	victims := rand.New(rand.NewPCG(seed, 0x6f64696e)).Perm(chips)
	every := requests / fleetChurns
	for k := 0; k < fleetChurns-1; k++ {
		after := (k + 1) * every
		in.ops = append(in.ops,
			serve.FleetOp{After: after, Remove: victims[k]},
			serve.FleetOp{After: after, Add: &serve.ChipConfig{
				Model: fleetModels[k%len(fleetModels)], Seed: uint64(chips+k) + 1,
			}})
	}
	return in, nil
}

// probeModel measures one model's service latency and forced-reprogram
// deadline on a throwaway controller.
func probeModel(sys core.System, name string) (lat, deadline float64, err error) {
	m, err := dnn.ByName(name)
	if err != nil {
		return 0, 0, err
	}
	wl, err := sys.Prepare(m)
	if err != nil {
		return 0, 0, err
	}
	ctrl, err := core.NewController(sys, wl, policy.New(policy.Config{Grid: sys.Grid(), Seed: 1}), core.ControllerOptions{})
	if err != nil {
		return 0, 0, err
	}
	return ctrl.RunInference(0).Latency, ctrl.ForcedReprogramAge(), nil
}

// newServer builds a fresh fleet for in on its own virtual clock and
// registry.
func (in *fleetInput) newServer() (*serve.Server, *clock.Virtual, *telemetry.Registry, error) {
	cfg := in.cfg
	clk := clock.NewVirtual(0)
	cfg.Clock = clk
	cfg.Registry = telemetry.NewRegistry()
	s, err := serve.NewServer(cfg)
	return s, clk, cfg.Registry, err
}

// replayFleet measures the replay-fleet workload. An operation is one
// replay of the seed's trace on a fresh fleet (plus the golden replay in a
// timed run); it fails when requests are not conserved or the decision-log
// checksum differs from the committed one or from the run's first replay.
// Set-up is building the 1024-chip fleet (serve.NewServer).
func replayFleet(e *env, m mode) (*pass, error) {
	p := newPass()
	if m == timed {
		golden, err := makeFleetInput(goldenChips, goldenRequests, goldenSeed)
		if err != nil {
			return nil, err
		}
		s, clk, reg, err := golden.newServer()
		if err != nil {
			return nil, err
		}
		res, err := replay(s, clk, golden, metrics{})
		if err != nil {
			return nil, err
		}
		p.attempted++
		if err := checkReplay(res, len(golden.trace), reg, expected.GoldenReplay); err != nil {
			p.failed++
			fmt.Fprintln(os.Stderr, "perfbench: golden replay:", err)
		}
	}

	in, err := makeFleetInput(fleetChips, fleetRequests, e.seed)
	if err != nil {
		return nil, err
	}
	want := expected.Replay[strconv.FormatUint(e.seed, 10)]
	var setup, walls []float64
	p.profile, err = profiled(m == traced, func() error {
		start := time.Now()
		for len(walls) == 0 || e.another(m, since(start), walls[len(walls)-1]+setup[len(setup)-1]) {
			t := time.Now()
			s, clk, reg, err := in.newServer()
			if err != nil {
				return err
			}
			setup = append(setup, since(t))
			t = time.Now()
			res, err := replay(s, clk, in, p.layer)
			if err != nil {
				return err
			}
			walls = append(walls, since(t))
			p.attempted++
			if err := checkReplay(res, len(in.trace), reg, want); err != nil {
				p.failed++
				fmt.Fprintln(os.Stderr, "perfbench: replay:", err)
			}
			if want == "" {
				want = checksumString(res.Checksum)
				fmt.Printf("replay seed=%d checksum=%s (no committed checksum for this seed)\n", e.seed, want)
			}
			if m == traced {
				if err := fleetCounters(p.layer, s, reg); err != nil {
					return err
				}
			}
			if len(walls) == 1 {
				fmt.Printf("replay: %d arrivals, admitted=%d shed=%d rejected=%d errors=%d\n",
					len(in.trace), res.Admitted, res.Shed, res.Rejected, res.Errors)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.cost = median(walls)
	p.layer.set("serve.new_server_s", median(setup), "s")
	if m != timed {
		return p, nil
	}
	for len(setup) < 3 {
		t := time.Now()
		if _, _, _, err := in.newServer(); err != nil {
			return nil, err
		}
		setup = append(setup, since(t))
	}
	p.e2e.set("setup_s", median(setup), "s")
	p.e2e.set("rate_per_s", float64(len(in.trace))/median(walls), "1/s")
	p.e2e.set("p50_ms", 1e3*median(walls), "ms")
	p.e2e.set("p99_ms", 1e3*percentile(walls, 0.99), "ms")
	return p, nil
}

func checksumString(c uint64) string { return fmt.Sprintf("%#016x", c) }

// checkReplay asserts request conservation, both in the replay's own
// tally and in the server's public counters, and compares the checksum
// with want (when one is known).
func checkReplay(res serve.ReplayResult, n int, reg *telemetry.Registry, want string) error {
	if got := res.Admitted + res.Shed + res.Errors + res.Rejected; got != n {
		return fmt.Errorf("admitted+shed+errors+rejected = %d, submitted %d", got, n)
	}
	prom, err := scrapeRegistry(reg)
	if err != nil {
		return err
	}
	if got := prom["odinserve_requests_total"]; got != float64(n) {
		return fmt.Errorf("odinserve_requests_total = %g, submitted %d", got, n)
	}
	if got := prom["odinserve_completed_total"]; got != float64(res.Admitted) {
		return fmt.Errorf("odinserve_completed_total = %g, admitted %d", got, res.Admitted)
	}
	if got := checksumString(res.Checksum); want != "" && got != want {
		return fmt.Errorf("decision-log checksum %s, want %s", got, want)
	}
	return nil
}

// replay drives in's trace and fleet-op schedule through s on its virtual
// clock, as serve.ReplayOps does, and times each call into the server
// itself: Submit, AddChip, RemoveChip and the draining Close, recorded in
// out. It is the benchmark's only replay loop, so timed, untraced and
// traced passes run the same code. The decision-log checksum it returns is
// the one ReplayOps computes for the same input; the committed checksums
// pin it to the shipped behaviour.
func replay(s *serve.Server, clk *clock.Virtual, in *fleetInput, out metrics) (serve.ReplayResult, error) {
	var submits, adds, removes []float64
	next := 0
	apply := func(i int) error {
		for next < len(in.ops) && in.ops[next].After <= i {
			op := in.ops[next]
			next++
			t := time.Now()
			var err error
			if op.Add != nil {
				_, err = s.AddChip(*op.Add)
				adds = append(adds, 1e3*since(t))
			} else {
				err = s.RemoveChip(op.Remove)
				removes = append(removes, 1e3*since(t))
			}
			if err != nil {
				return fmt.Errorf("fleet op %d: %w", next-1, err)
			}
		}
		return nil
	}
	s.Start()
	chans := make([]<-chan serve.Response, len(in.trace))
	for i, a := range in.trace {
		if err := apply(i); err != nil {
			s.Close()
			return serve.ReplayResult{}, err
		}
		clk.Set(a.Time)
		t := time.Now()
		chans[i] = s.SubmitAs(a.Model, a.Tenant)
		submits = append(submits, 1e6*since(t))
	}
	err := apply(len(in.trace))
	t := time.Now()
	s.Close()
	out.set("serve.drain_s", since(t), "s")
	if err != nil {
		return serve.ReplayResult{}, err
	}
	out.set("serve.submit_us_p99", percentile(submits, 0.99), "us")
	out.set("serve.add_chip_ms", median(adds), "ms")
	out.set("serve.remove_chip_ms", median(removes), "ms")

	res := serve.ReplayResult{Responses: make([]serve.Response, len(chans))}
	for i, ch := range chans {
		r := <-ch
		res.Responses[i] = r
		switch {
		case r.Rejected:
			res.Rejected++
		case r.Err != "":
			res.Errors++
		case r.Shed:
			res.Shed++
		default:
			res.Admitted++
		}
	}
	h := fnv.New64a()
	if err := res.WriteLog(h); err != nil {
		return res, err
	}
	res.Checksum = h.Sum64()
	return res, nil
}

// fleetCounters reads the per-layer counts of a closed fleet from its
// public surfaces: Stats, the metrics registry and the decision cache.
func fleetCounters(out metrics, s *serve.Server, reg *telemetry.Registry) error {
	var scrapes []float64
	var prom map[string]float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		var err error
		if prom, err = scrapeRegistry(reg); err != nil {
			return err
		}
		scrapes = append(scrapes, 1e3*since(t))
	}
	out.set("serve.metrics_scrape_ms", median(scrapes), "ms")
	if err := servedCounters(out, prom); err != nil {
		return err
	}
	updates := 0
	for _, st := range s.Stats() {
		updates += st.PolicyUpdates
	}
	out.set("core.policy_updates", float64(updates), "count")
	c := s.DecisionCache()
	if c == nil {
		return fmt.Errorf("replay fleet has no decision cache")
	}
	n := c.Counters()
	out.set("decache.decision_hit_ratio", ratio(n.DecisionHits, n.DecisionHits+n.DecisionMisses), "ratio")
	out.set("decache.predict_hit_ratio", ratio(n.PredictHits, n.PredictHits+n.PredictMisses), "ratio")
	return nil
}

// servedCounters derives the serving counts shared by both serving
// workloads from a Prometheus scrape. A scrape without batches or requests
// is an error: both workloads serve.
func servedCounters(out metrics, prom map[string]float64) error {
	batches, requests := prom["odinserve_batch_size_count"], prom["odinserve_requests_total"]
	if batches <= 0 || requests <= 0 {
		return fmt.Errorf("metrics scrape shows %g batches and %g requests", batches, requests)
	}
	out.set("serve.batch_size_mean", prom["odinserve_batch_size_sum"]/batches, "count")
	out.set("serve.shed_frac", prom["odinserve_shed_total"]/requests, "ratio")
	out.set("serve.evicted", prom["odinserve_evicted_total"], "count")
	out.set("serve.maintenance_reprograms", prom["odinserve_maintenance_reprograms_total"], "count")
	out.set("serve.reprogram_on_path", prom["odinserve_reprogram_on_path_requests_total"], "count")
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// scrapeRegistry renders a registry's Prometheus exposition and parses it.
func scrapeRegistry(reg *telemetry.Registry) (map[string]float64, error) {
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		return nil, err
	}
	return parseProm(sb.String()), nil
}

// parseProm sums each sample family of a Prometheus text exposition over
// its label values: "name{l=...} v" lines add into out["name"].
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out
}
