// Command odinserve runs the concurrent inference-serving layer over a
// simulated fleet of ReRAM chips (internal/serve).
//
// Usage:
//
//	odinserve replay [flags]   # deterministic load replay on a virtual clock
//	odinserve serve  [flags]   # live HTTP serving on the real clock
//	odinserve watch  [flags]   # live terminal fleet dashboard over GET /events
//
// replay generates a Poisson arrival trace from internal/rng, drives it
// through a fresh fleet, and prints aggregate figures plus an FNV-1a
// checksum of the per-request OU decision log. With -verify it replays the
// same trace against a second fresh fleet and fails unless the two decision
// logs are byte-identical — the determinism contract `make smoke`
// enforces in CI.
//
// replay -trace FILE additionally records the full span tree (batches,
// requests, controller runs/layers) and writes it as Chrome trace-event
// JSON, loadable in chrome://tracing or Perfetto. The dump is byte-identical
// for a given trace and seed regardless of -workers.
//
// replay -pulse-log FILE captures the streaming-telemetry event log
// (internal/pulse) of the replay: one canonical JSON object per line,
// ordered by (virtual time, chip, kind) — byte-identical for a given trace
// and seed regardless of -workers (`make smoke` pins this).
//
// serve exposes the fleet over HTTP via serve.NewHandlerOpts:
//
//	POST /infer              JSON body {"model":NAME,"count":N} or ?model=NAME
//	GET  /metrics            Prometheus text exposition
//	GET  /healthz            liveness probe (503 once draining)
//	GET  /debug/trace        Chrome trace-event span ring dump (-trace N)
//	GET  /events             live SSE telemetry stream (-pulse N, on by default)
//	GET  /statusz            JSON fleet series snapshot (-pulse N)
//	GET  /debug/pprof/       net/http/pprof suite (only with -debug)
//	/admin/...               fleet control plane (only with -admin):
//	                         GET /admin/fleet, POST /admin/chips,
//	                         DELETE /admin/chips/{id}
//
// Both subcommands share the fleet flags: -models picks the hosted zoo
// models, -fleet N cycles that list to build an N-chip fleet, -router
// selects the arrival policy (rr|least|drift), -drift-margin tunes drift
// steering, and -tenants configures admission classes
// (name=quota[:priority], comma-separated).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/obs"
	"odin/internal/policy"
	"odin/internal/pulse"
	"odin/internal/serve"
	"odin/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "odinserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("no subcommand selected")
	}
	switch args[0] {
	case "replay":
		return runReplay(args[1:])
	case "serve":
		return runServe(args[1:])
	case "watch":
		return runWatch(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	}
	usage()
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func usage() {
	fmt.Println("usage: odinserve replay|serve|watch [flags]")
	fmt.Println("  replay  deterministic load replay on a virtual clock (-h for flags)")
	fmt.Println("  serve   live HTTP serving on the real clock (-h for flags)")
	fmt.Println("  watch   live terminal fleet dashboard over GET /events (-h for flags)")
}

// fleetFlags are the chip/queue knobs shared by both subcommands.
type fleetFlags struct {
	models  *string
	fleet   *int
	router  *string
	margin  *float64
	tenants *string
	queue   *int
	batch   *int
	workers *int
	budget  *int
}

func addFleetFlags(fs *flag.FlagSet) fleetFlags {
	return fleetFlags{
		models: fs.String("models", "VGG11,VGG11", "comma-separated zoo models, one chip each"),
		fleet: fs.Int("fleet", 0,
			"fleet size: cycle -models until this many chips exist (0 = one chip per -models entry)"),
		router: fs.String("router", "", "arrival router: "+strings.Join(serve.RouterNames(), "|")+
			" (default rr)"),
		margin: fs.Float64("drift-margin", 0,
			"drift router steering threshold as a fraction of the forced-reprogram deadline (0 = default)"),
		tenants: fs.String("tenants", "",
			"admission classes, comma-separated name=quota[:priority] (quota 0 = unlimited)"),
		queue:   fs.Int("queue", 16, "per-chip queue depth (admission bound)"),
		batch:   fs.Int("batch", 8, "max requests coalesced per decision pass"),
		workers: fs.Int("workers", 0, "worker-pool size (0 = one per chip)"),
		budget:  fs.Int("budget", 0, "per-chip reprogram budget (0 = unlimited)"),
	}
}

// parseTenants decodes the -tenants grammar: name=quota or name=quota:prio,
// comma-separated. The empty name configures the default class.
func parseTenants(spec string) ([]serve.TenantConfig, error) {
	var out []serve.TenantConfig
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, rest, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("-tenants entry %q: want name=quota[:priority]", ent)
		}
		tc := serve.TenantConfig{Name: strings.TrimSpace(name)}
		quota, prio, hasPrio := strings.Cut(rest, ":")
		q, err := strconv.Atoi(quota)
		if err != nil {
			return nil, fmt.Errorf("-tenants entry %q: quota %q is not a number", ent, quota)
		}
		tc.Quota = q
		if hasPrio {
			p, err := strconv.Atoi(prio)
			if err != nil {
				return nil, fmt.Errorf("-tenants entry %q: priority %q is not a number", ent, prio)
			}
			tc.Priority = p
		}
		out = append(out, tc)
	}
	return out, nil
}

func (f fleetFlags) config(clk clock.Clock) (serve.Config, error) {
	cfg := serve.Config{
		Router:          *f.router,
		DriftMargin:     *f.margin,
		QueueDepth:      *f.queue,
		MaxBatch:        *f.batch,
		Workers:         *f.workers,
		ReprogramBudget: *f.budget,
		Clock:           clk,
	}
	var names []string
	for _, name := range strings.Split(*f.models, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return cfg, fmt.Errorf("-models selects no chips")
	}
	n := len(names)
	if *f.fleet > 0 {
		n = *f.fleet
	}
	for i := 0; i < n; i++ {
		cfg.Chips = append(cfg.Chips, serve.ChipConfig{Model: names[i%len(names)]})
	}
	if *f.tenants != "" {
		tenants, err := parseTenants(*f.tenants)
		if err != nil {
			return cfg, err
		}
		cfg.Tenants = tenants
	}
	return cfg, nil
}

// serviceLatency probes one inference on a fresh controller of the first
// chip's model — the service-time scale auto-rate calibration needs.
// Deterministic: the probe shares nothing with the serving fleet.
func serviceLatency(model string) (float64, error) {
	m, err := dnn.ByName(model)
	if err != nil {
		return 0, err
	}
	sys := core.DefaultSystem()
	wl, err := sys.Prepare(m)
	if err != nil {
		return 0, err
	}
	pol := policy.New(policy.Config{Grid: sys.Grid(), Seed: 1})
	ctrl, err := core.NewController(sys, wl, pol, core.ControllerOptions{})
	if err != nil {
		return 0, err
	}
	return ctrl.RunInference(0).Latency, nil
}

func runReplay(args []string) error {
	fs := flag.NewFlagSet("odinserve replay", flag.ContinueOnError)
	fleet := addFleetFlags(fs)
	seed := fs.Uint64("seed", 1, "trace rng seed")
	requests := fs.Int("requests", 200, "trace length")
	rate := fs.Float64("rate", 0, "arrival rate in requests/s (0 = auto: 30% of fleet capacity)")
	verify := fs.Bool("verify", false, "replay twice on fresh fleets; fail unless decision logs are byte-identical")
	maxShed := fs.Int("max-shed", -1, "fail when more than this many requests shed (-1 = no check)")
	dumpLog := fs.Bool("log", false, "print the per-request decision log")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON span dump of the replay to this file")
	pulseOut := fs.String("pulse-log", "", "write the canonical pulse event log of the replay to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	clk := clock.NewVirtual(0)
	cfg, err := fleet.config(clk)
	if err != nil {
		return err
	}
	if *rate == 0 {
		lat, err := serviceLatency(cfg.Chips[0].Model)
		if err != nil {
			return err
		}
		*rate = 0.3 * float64(len(cfg.Chips)) / lat
	}
	var models []string
	for _, cc := range cfg.Chips {
		models = append(models, cc.Model)
	}
	tr, err := serve.GenTrace(serve.TraceConfig{
		Seed: *seed, Rate: *rate, Requests: *requests, Models: models,
	})
	if err != nil {
		return err
	}

	res, spans, bus, err := replayFresh(cfg, tr, *traceOut != "", *pulseOut != "")
	if err != nil {
		return err
	}
	router := cfg.Router
	if router == "" {
		router = "rr"
	}
	fmt.Printf("trace: %d requests, rate %.4g req/s, seed %d, %d chips, router=%s\n",
		len(tr), *rate, *seed, len(cfg.Chips), router)
	fmt.Printf("admitted=%d shed=%d errors=%d reprogram=%d\n",
		res.Admitted, res.Shed, res.Errors, res.Reprogram)
	fmt.Printf("energy=%.6g J  latency=%.6g s  wait=%.6g s\n", res.Energy, res.Latency, res.Wait)
	fmt.Printf("checksum=%#016x\n", res.Checksum)
	if *dumpLog {
		if err := res.WriteLog(os.Stdout); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := spans.WriteChromeTrace(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", spans.Len(), *traceOut)
	}
	if *pulseOut != "" {
		f, err := os.Create(*pulseOut)
		if err != nil {
			return err
		}
		if err := bus.WriteLog(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("pulse: %d events written to %s\n", bus.LastSeq(), *pulseOut)
	}

	if *verify {
		again, _, _, err := replayFresh(cfg, tr, false, false)
		if err != nil {
			return err
		}
		if again.Checksum != res.Checksum {
			return fmt.Errorf("replay diverged: checksum %#016x vs %#016x", again.Checksum, res.Checksum)
		}
		fmt.Println("verify: second replay byte-identical")
	}
	if *maxShed >= 0 && res.Shed > *maxShed {
		return fmt.Errorf("shed %d requests, allowed %d", res.Shed, *maxShed)
	}
	return nil
}

// replayFresh builds a fresh fleet (its own virtual clock and registry) and
// replays the trace through it, optionally recording spans and pulse
// events (unbounded ring, so the whole log survives for WriteLog).
func replayFresh(cfg serve.Config, tr serve.Trace, traced, pulsed bool) (serve.ReplayResult, *obs.Tracer, *pulse.Bus, error) {
	clk := clock.NewVirtual(0)
	cfg.Clock = clk
	cfg.Registry = telemetry.NewRegistry()
	if traced {
		cfg.Tracer = obs.New()
	}
	if pulsed {
		cfg.Pulse = pulse.New(pulse.Options{Registry: cfg.Registry})
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		return serve.ReplayResult{}, nil, nil, err
	}
	s.Start()
	return serve.Replay(s, clk, tr), cfg.Tracer, cfg.Pulse, nil
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("odinserve serve", flag.ContinueOnError)
	fleet := addFleetFlags(fs)
	addr := fs.String("addr", "localhost:8080", "HTTP listen address")
	admin := fs.Bool("admin", false,
		"expose the fleet control plane under /admin/ (hot add/remove; off by default)")
	debug := fs.Bool("debug", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
	traceCap := fs.Int("trace", 4096, "span ring capacity behind GET /debug/trace (0 disables tracing)")
	pulseCap := fs.Int("pulse", 8192,
		"event ring capacity behind GET /events and /statusz (0 disables streaming telemetry)")
	pulseInterval := fs.Float64("pulse-interval", 1, "pulse series bucket width in seconds")
	verbose := fs.Bool("v", false, "log serve events (chip degradation, drain) to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	clk := clock.NewReal()
	cfg, err := fleet.config(clk)
	if err != nil {
		return err
	}
	cfg.Live = true
	cfg.Registry = telemetry.NewRegistry()
	var spans *obs.Tracer
	if *traceCap > 0 {
		spans = obs.NewRing(*traceCap)
		cfg.Tracer = spans
	}
	if *pulseCap > 0 {
		// The bus shares the fleet's registry, so odin_pulse_* meters land
		// on GET /metrics next to the odinserve_* families.
		cfg.Pulse = pulse.New(pulse.Options{
			Ring: *pulseCap, Interval: *pulseInterval, Registry: cfg.Registry,
		})
	}
	if *verbose {
		cfg.Logger = slog.New(obs.NewLogHandler(os.Stderr, clk, slog.LevelInfo))
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}
	s.Start()

	// Catch the drain signals before the listener starts: one that arrives
	// after the first answered request must drain, not kill the process.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	handler := serve.NewHandlerOpts(s, serve.HandlerOptions{Tracer: spans, Debug: *debug, Admin: *admin})
	httpSrv := newHTTPServer(*addr, handler)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("odinserve: listening on %s (%d chips, router=%s)\n",
		*addr, len(cfg.Chips), s.RouterName())

	select {
	case err := <-errc:
		s.Close()
		return err
	case sig := <-sigc:
		fmt.Printf("odinserve: %v, draining\n", sig)
	}
	if err := httpSrv.Shutdown(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "odinserve: http shutdown:", err)
	}
	s.Close()
	for _, st := range s.Stats() {
		fmt.Printf("chip %d (%s): served=%d batches=%d reprograms=%d updates=%d energy=%.6g J\n",
			st.ID, st.Model, st.Served, st.Batches, st.Reprograms, st.PolicyUpdates, st.Energy)
	}
	return nil
}

// The live server's connection limits. Without them a client that never
// finishes its request headers, or never sends its body, holds a
// connection and a goroutine forever, and so does an idle keep-alive
// connection. There is no write timeout: it would cut GET /events streams,
// which write for as long as the client listens.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the live server for handler. Every request context
// derives from one base context that Shutdown cancels, so open GET /events
// streams, which end only with their request context, return and let the
// drain finish; /infer never reads its context and completes as before.
// The read limits above do not reach an /events stream: net/http clears
// the read deadline once a request without a body has been read.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	base, cancel := context.WithCancel(context.Background())
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		BaseContext:       func(net.Listener) context.Context { return base },
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	srv.RegisterOnShutdown(cancel)
	return srv
}
