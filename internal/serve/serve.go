// Package serve is the concurrent inference-serving layer over a simulated
// fleet of ReRAM chips. Each chip runs one prepared workload, shared
// read-only with the other chips of its model, and owns one Odin
// controller (policy, training buffer, drift bookkeeping) and one
// reprogram budget; requests are routed to chips by one of three routers
// (round-robin, least-loaded, or drift-aware — see router.go), admitted
// through bounded per-chip queues (shed with a 429-style rejection when
// the queue is full) under optional per-tenant quotas and priority
// classes, coalesced into per-chip batches, and executed on a fixed worker
// pool. Chips can be added and removed while serving (AddChip/RemoveChip —
// scale-out, simulated failure, retirement); removal drains the chip's
// queue first, so the exactly-once response contract survives fleet
// churn. Shutdown drains: every admitted request receives its response
// exactly once.
//
// # Determinism
//
// All time flows through internal/clock. Replayed against a Virtual clock
// (see Trace, Replay and ReplayOps in trace.go), the layer is
// deterministic at the request level: the same trace, seed and fleet-op
// schedule produce byte-identical per-request OU decisions, reprogram
// events, and energy/latency figures, independent of worker count and
// goroutine scheduling. This holds because
//
//   - routing is decided in arrival order by the single dispatcher
//     goroutine. The least-loaded and drift routers score exact
//     virtual-time state: a per-model index keys each host by (near, load,
//     id) and times its next transition (an unobserved result, a batch
//     finish or start, the end of a write pass, the drift-margin
//     crossing), and before each pick the dispatcher synchronously
//     advances to the arrival time, in id order, the chips whose
//     transition is due. Every other chip is already exact at that time,
//     so this makes the same batch, response and metric calls, in the same
//     order, as advancing every candidate: the scores and every metric sum
//     are pure functions of virtual time. Round-robin skips the advance
//     and stays byte-compatible with pre-router replays;
//   - fleet ops (add/remove) flow through the same event stream as
//     arrivals, so their order relative to the arrival sequence is fixed
//     by the submitter, not by scheduling;
//   - batch composition is a pure function of virtual time: when a chip
//     goes idle at time f with requests waiting, the next batch starts at
//     s = max(f, first waiting arrival) and contains the longest waiting
//     prefix with arrival <= s (capped at MaxBatch) — regardless of when
//     the dispatcher happens to observe the worker's result;
//   - a chip executes one batch at a time, so its controller state evolves
//     in a fixed order;
//   - admission decisions that need exact virtual queue occupancy (the
//     queue looks full) synchronously wait for the in-flight result; all
//     other completions are observed opportunistically.
//
// Telemetry counters and per-request figures are deterministic under
// replay, and each log line carries the virtual time of the action it
// reports rather than a clock read. Three metric families depend on
// scheduling and are observability-only:
//
//   - odinserve_queue_depth samples reflect how eagerly completions were
//     observed;
//   - odinserve_queue_wait_seconds_sum, under round-robin routing without
//     quotas, adds waits in the order chips' batches are observed, so its
//     last bits vary between runs;
//   - the odin_decache_* hit/miss split above one worker depends on which
//     chip's worker reaches a shared decision first (a virtual-clock fleet
//     with quotas runs its batches on the dispatcher, so its split is
//     fixed).
package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"

	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/decache"
	"odin/internal/dnn"
	"odin/internal/obs"
	"odin/internal/ou"
	"odin/internal/par"
	"odin/internal/policy"
	"odin/internal/pulse"
	"odin/internal/telemetry"
)

// ErrDraining is the sentinel inside every error returned for submissions
// and fleet operations refused because Close has begun. Check it with
// errors.Is — the HTTP layer maps it to 503 — instead of matching message
// text.
var ErrDraining = errors.New("server is draining")

// RejectedID is the sentinel Response.ID of a submission rejected before
// it ever entered the dispatcher (Submit after Close has flipped
// draining). Real ids are assigned by the dispatcher in arrival order
// starting at 0, so they can never collide with the sentinel — a rejected
// Response is distinguishable from request 0 by ID alone.
const RejectedID = ^uint64(0)

// Response is the outcome of one request. Exactly one Response is
// delivered per submitted request, on the channel Submit returns.
type Response struct {
	ID    uint64 // request sequence number (arrival order); RejectedID for rejections
	Chip  int    // serving chip id (the routed chip for sheds; -1 for routing errors)
	Batch uint64 // per-chip batch index the request rode in

	Shed     bool   // true when rejected by admission control (429-style)
	Rejected bool   // true when rejected at Submit while draining (never dispatched)
	Err      string // non-empty for routing errors (unknown model, draining)

	Sizes        []ou.Size // per-layer OU decisions of the batch's run
	Energy       float64   // per-request inference energy (J)
	Latency      float64   // per-request service latency (s)
	Wait         float64   // virtual queue wait before execution (s)
	Accuracy     float64   // estimated accuracy of the run
	Reprogrammed bool      // the batch triggered a reprogramming pass
}

// Request is one inference submission flowing through the dispatcher.
type Request struct {
	ID      uint64
	Model   string
	Tenant  string  // submitting tenant ("" = the default class)
	Arrival float64 // seconds on the server clock, stamped at Submit
	done    chan Response

	// ten is the resolved tenant state, stamped by the dispatcher when
	// tenant accounting is on (dispatcher-owned, like ID).
	ten *tenantState
}

// respond delivers the request's single response (channel has capacity 1).
func (r *Request) respond(resp Response) { r.done <- resp }

// ChipConfig describes one chip of the fleet.
type ChipConfig struct {
	// Model names the zoo workload the chip is programmed with.
	Model string
	// Custom overrides the zoo lookup with an explicit model (tests and
	// design studies). When set, Model defaults to Custom.Name.
	Custom *dnn.Model
	// Seed initialises the chip's policy (and, unless the controller
	// options pin one, its training stream). 0 derives a per-chip default.
	Seed uint64
	// ProgrammedAt back-dates the chip's last write pass (typically
	// negative; see core.ControllerOptions.ProgrammedAt). Staggering it
	// across a fleet desynchronizes drift phases, so forced reprograms
	// arrive as a steady trickle instead of a fleet-wide herd.
	ProgrammedAt float64
}

// TenantConfig is one admission class. Tenants partition the request
// stream for quota and priority purposes; requests name their tenant via
// SubmitAs (unnamed submissions ride the zero-value default class).
type TenantConfig struct {
	// Name identifies the tenant ("" configures the default class).
	Name string
	// Quota caps the tenant's outstanding admitted requests across the
	// fleet; arrivals beyond it are shed (429-style). 0 = unlimited.
	Quota int
	// Priority orders classes at a full chip queue: an arrival of a
	// higher-priority tenant evicts the newest queued request of the
	// lowest queued class below it (the evictee is shed) instead of being
	// shed itself. Equal priorities never preempt each other. Default 0.
	Priority int
}

// Config parameterises a Server.
type Config struct {
	// Chips is the initial fleet; at least one. Several chips may host the
	// same model — requests for that model rotate across them. Chips can
	// be added and removed later with AddChip/RemoveChip.
	Chips []ChipConfig
	// Router names the arrival-routing policy: "rr" (default, the
	// replay-compatible round-robin baseline), "least" (least-loaded), or
	// "drift" (least-loaded with steering away from chips near their
	// forced-reprogram deadline, plus off-path maintenance write passes).
	// See RouterNames.
	Router string
	// DriftMargin tunes the "drift" router: steering starts when a chip's
	// device age exceeds DriftMargin × its forced-reprogram deadline.
	// Must be in (0,1); 0 selects the default 0.85.
	DriftMargin float64
	// Tenants configures admission classes (quotas, priorities). Empty
	// disables tenant accounting entirely: SubmitAs still works, but no
	// quota is enforced and no per-tenant series are emitted.
	Tenants []TenantConfig
	// QueueDepth bounds each chip's wait queue (default 16).
	QueueDepth int
	// MaxBatch caps how many queued requests coalesce into one decision
	// pass (default 8).
	MaxBatch int
	// Workers sizes the execution pool (default: one per chip). A
	// virtual-clock fleet with tenant quotas starts no pool: its dispatcher
	// runs every batch itself (see Server.inline).
	Workers int
	// ReprogramBudget is the per-chip reprogramming allowance; once a
	// chip's controller exceeds it the chip is marked degraded in
	// telemetry. 0 means unlimited.
	ReprogramBudget int
	// Clock is the time source (required). Live binaries inject
	// clock.NewReal(); tests and replay inject a clock.Virtual.
	Clock clock.Clock
	// Live enables completion-driven dispatch: workers wake the dispatcher
	// when a batch finishes, so queued requests are answered without waiting
	// for the next arrival or for drain. Required for interactive serving
	// (cmd/odinserve serve); must stay false for deterministic replay, where
	// the wake signal's real-time interleaving with arrivals would make
	// batch composition scheduling-dependent.
	Live bool
	// Registry receives serve-path metrics; nil creates a private one.
	Registry *telemetry.Registry
	// Tracer, when non-nil, records serve-path spans — per-chip "batch"
	// spans with child "request" spans, zero-width "shed" markers, and the
	// controller's run/layer/noc/reprogram tree (each chip's controller is
	// given this tracer on track == chip id, superseding
	// Controller.Tracer/TraceTrack). All span timestamps are virtual
	// (Clock) times, so replayed traces export byte-identically regardless
	// of Workers — see WriteChromeTrace's canonical ordering.
	Tracer *obs.Tracer
	// Logger receives structured serve events (chip add/remove and
	// degradation, drain); nil disables logging. Each record carries the
	// action's virtual time as an obs.WithTime context, which
	// obs.NewLogHandler stamps, so replayed logs are byte-identical at
	// every worker count.
	Logger *slog.Logger
	// Pulse, when non-nil, receives streaming telemetry events (batch
	// retirements, each just after its run's decision summary, reprogram
	// passes, lifecycle, sheds) and powers GET /events and GET /statusz.
	// Decision summaries come from the batch report, whether or not
	// Controller.Audit is set. Every published field is a pure function
	// of virtual time and per-chip batch order, so replayed event logs are
	// byte-identical at any worker count — see internal/pulse's package
	// comment for the contract. nil disables publishing at the cost of one
	// pointer test per site.
	Pulse *pulse.Bus
	// System is the simulated platform; nil uses core.DefaultSystem.
	System *core.System
	// Controller tunes each chip's online-learning loop.
	Controller core.ControllerOptions
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.Workers <= 0 {
		c.Workers = len(c.Chips)
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	return c
}

// chip is dispatcher-owned fleet state. Only the dispatcher goroutine
// touches it, except ctrl during an in-flight batch (handed to a worker and
// back through the results channel, which provides the happens-before
// edges).
type chip struct {
	id    int
	label string // id as string, for metric labels
	model string
	ctrl  *core.Controller

	pending  []*Request // admitted, waiting; FIFO in arrival order
	inflight *batch     // at most one dispatched batch
	freeAt   float64    // virtual time the chip last went idle
	results  chan *batch
	batches  uint64 // per-chip batch counter (deterministic batch ids)

	// wakePending dedups Live-mode completion hints: true while a hint for
	// this chip sits in s.woken (or is about to be appended). It bounds the
	// woken set to one entry per chip, so the set stays fleet-sized even
	// when batches retired through the arrival path leave their hints
	// unconsumed. Shared between workers and the dispatcher (the only
	// chip field touched outside the results-channel handoff).
	wakePending atomic.Bool

	// Deterministic per-chip accumulations (updated in batch order).
	energySum  float64
	latencySum float64
	served     uint64
	degraded   bool

	// removed marks a retired chip: it is out of its model's index
	// (receives no new work), its queue was drained at removal, and only
	// its historical accumulators remain readable. Ids are never reused.
	removed bool

	// Routing-index state (dispatcher-owned; see modelIndex). near and load
	// are the chip's keys at the dispatcher's virtual now, valid until
	// next; nearAt is when the drift router starts counting it near under
	// its current programming; slot holds its positions in the index's
	// route, maint and due heaps (-1 when absent).
	index  *modelIndex
	near   bool
	load   int
	next   float64
	nearAt float64
	slot   [3]int
}

// tenantState is the dispatcher-owned accounting of one admission class.
type tenantState struct {
	label       string // metric label ("default" for the unnamed class)
	quota       int
	prio        int
	outstanding int // admitted, not yet responded (exact under quota enforcement)
}

// batch is one coalesced decision pass. Written by the dispatcher, handed
// to a worker (which fills rep), handed back.
type batch struct {
	chip  *chip
	id    uint64
	start float64 // virtual execution start
	reqs  []*Request

	rep    core.BatchReport
	done   bool    // dispatcher observed the result
	finish float64 // start + rep.BatchLatency(), valid once done

	// depth is the backlog left behind at the batch's start: pending
	// requests with arrival <= start that did not coalesce (beyond
	// MaxBatch). Captured in startBatch because it is a pure function of
	// virtual time there — unlike len(pending) at result observation,
	// which depends on how eagerly completions were observed — so the
	// pulse batch event stays worker-count invariant. Only computed when
	// a pulse bus is attached.
	depth int
}

// metrics bundles the serve-path instrumentation.
type metrics struct {
	requests  *telemetry.Counter
	admitted  *telemetry.Counter
	shed      *telemetry.Counter
	errors    *telemetry.Counter
	rejected  *telemetry.Counter
	evicted   *telemetry.Counter
	quotaShed *telemetry.Counter
	completed *telemetry.Counter
	batches   *telemetry.Counter

	steered         *telemetry.Counter
	maintenance     *telemetry.Counter
	reprogramOnPath *telemetry.Counter

	fleetChips   *telemetry.Gauge
	chipsAdded   *telemetry.Counter
	chipsRemoved *telemetry.Counter

	tenantRequests *telemetry.CounterVec
	tenantAdmitted *telemetry.CounterVec
	tenantShed     *telemetry.CounterVec

	batchSize  *telemetry.Histogram
	queueWait  *telemetry.Histogram
	queueDepth *telemetry.Histogram

	chipDepth     *telemetry.GaugeVec
	chipReprogram *telemetry.CounterVec
	chipUpdates   *telemetry.CounterVec
	chipBatches   *telemetry.CounterVec
	chipEnergy    *telemetry.GaugeVec
	chipDegraded  *telemetry.GaugeVec
}

func newMetrics(r *telemetry.Registry) metrics {
	return metrics{
		requests:  r.Counter("odinserve_requests_total", "requests submitted"),
		admitted:  r.Counter("odinserve_admitted_total", "requests admitted past admission control"),
		shed:      r.Counter("odinserve_shed_total", "requests shed by admission control (429)"),
		errors:    r.Counter("odinserve_errors_total", "requests rejected for routing errors"),
		rejected:  r.Counter("odinserve_rejected_total", "submissions rejected while draining (never dispatched)"),
		evicted:   r.Counter("odinserve_evicted_total", "queued requests evicted by higher-priority arrivals (subset of shed)"),
		quotaShed: r.Counter("odinserve_quota_shed_total", "requests shed by tenant quota enforcement (subset of shed)"),
		completed: r.Counter("odinserve_completed_total", "requests served to completion"),
		batches:   r.Counter("odinserve_batches_total", "decision-pass batches dispatched"),

		steered: r.Counter("odinserve_steered_total",
			"arrivals routed away from a chip near its forced-reprogram deadline"),
		maintenance: r.Counter("odinserve_maintenance_reprograms_total",
			"off-path reprogram passes taken on idle chips"),
		reprogramOnPath: r.Counter("odinserve_reprogram_on_path_requests_total",
			"requests whose batch carried a forced reprogram stall"),

		fleetChips:   r.Gauge("odinserve_fleet_chips", "live (non-removed) chips in the fleet"),
		chipsAdded:   r.Counter("odinserve_chips_added_total", "chips hot-added while serving"),
		chipsRemoved: r.Counter("odinserve_chips_removed_total", "chips drained and removed while serving"),

		tenantRequests: r.CounterVec("odinserve_tenant_requests_total", "requests submitted per tenant", "tenant"),
		tenantAdmitted: r.CounterVec("odinserve_tenant_admitted_total", "requests admitted per tenant", "tenant"),
		tenantShed:     r.CounterVec("odinserve_tenant_shed_total", "requests shed per tenant (quota, queue, or eviction)", "tenant"),

		batchSize: r.Histogram("odinserve_batch_size",
			"coalesced requests per batch", []float64{1, 2, 4, 8, 16, 32}),
		queueWait: r.Histogram("odinserve_queue_wait_seconds",
			"virtual queue wait per request", []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10}),
		queueDepth: r.Histogram("odinserve_queue_depth",
			"chip queue depth sampled at admission", []float64{0, 1, 2, 4, 8, 16, 32, 64}),

		chipDepth:     r.GaugeVec("odinserve_chip_queue_depth", "current queue depth per chip", "chip"),
		chipReprogram: r.CounterVec("odinserve_chip_reprograms_total", "reprogramming passes per chip", "chip"),
		chipUpdates:   r.CounterVec("odinserve_chip_policy_updates_total", "online policy updates per chip", "chip"),
		chipBatches:   r.CounterVec("odinserve_chip_batches_total", "batches executed per chip", "chip"),
		chipEnergy:    r.GaugeVec("odinserve_chip_energy_joules", "cumulative served energy per chip", "chip"),
		chipDegraded:  r.GaugeVec("odinserve_chip_degraded", "1 when the chip exhausted its reprogram budget", "chip"),
	}
}

// event is one entry of the dispatcher's serialized input stream: an
// arrival or a fleet operation. Interleaving both through one channel is
// what fixes the order of fleet churn relative to the arrival sequence —
// an op submitted before arrival i is processed before arrival i,
// regardless of scheduling.
type event struct {
	req *Request
	op  *fleetOp
}

// fleetOp is one control-plane request (hot add, drain-and-remove, or
// fleet snapshot), answered synchronously on reply.
type fleetOp struct {
	add    *ChipConfig // add a chip when non-nil
	remove int         // chip id to drain and remove (when add == nil and !info)
	info   bool        // snapshot the fleet
	reply  chan fleetOpResult
}

type fleetOpResult struct {
	id   int
	info []ChipInfo
	err  error
}

// Server shards a fleet of simulated ReRAM chips behind bounded queues and
// a fixed worker pool. Create with NewServer, start with Start, submit with
// Submit, stop with Close.
type Server struct {
	cfg Config
	clk clock.Clock
	met metrics
	sys core.System

	chips   []*chip
	live    int                    // non-removed chips
	byModel map[string]*modelIndex // kept when a model's last host leaves, with its rr cursor
	indexes []*modelIndex          // byModel's values in creation order
	router  router
	margin  float64 // drift router's steering margin

	// workloads holds every model prepared so far, shared read-only by all
	// of its chips: core never writes a Workload after Prepare. It is kept
	// when a model's last host leaves, so a later hot add reuses it.
	// Dispatcher-owned once NewServer returns.
	workloads map[workloadKey]*core.Workload

	// models mirrors the live-host counts for HTTP-side lookups
	// (HasModel/Models run on handler goroutines while the dispatcher
	// changes the fleet).
	modelsMu sync.RWMutex
	models   map[string]int

	// tenants resolves admission classes; tenantsOn gates all tenant
	// bookkeeping (quota advance, eviction, per-tenant series) so the
	// tenant-free configuration costs one boolean test per arrival.
	// quotaOn is set when any class has a quota, which is what forces the
	// exact fleet-wide advance per arrival. Dispatcher-owned.
	tenants   map[string]*tenantState
	tenantsOn bool
	quotaOn   bool

	// inline runs every batch's decision pass on the dispatcher instead of
	// the worker pool. It is set for quotas outside Live mode: each arrival
	// then starts with the fleet-wide advance that observes every in-flight
	// batch, so a pooled batch could overlap only the rest of the arrival
	// that started it, while the hand-off to a worker and back puts two
	// goroutine switches, and often a thread wake-up, on the dispatcher's
	// path.
	inline bool

	scratch []*chip // due and maintenance lists (dispatcher-owned)

	// checkRoute, when set, is called on every exact routing decision
	// before maintenance and before the pick, with exact state at t. Tests
	// hang a full-scan reference on it.
	checkRoute func(mi *modelIndex, t float64)

	events chan event
	jobs   chan *batch
	drainc chan chan struct{}

	// Live-mode completion hints. Workers append the finished chip to
	// woken (deduplicated by chip.wakePending) and nudge the 1-slot wakec
	// with a non-blocking send; neither step can block, whatever the fleet
	// size, so hot fleet growth (AddChip past the seed sizing) and drain
	// (when the dispatcher stops sweeping hints) never wedge a worker.
	wakeMu sync.Mutex
	woken  []*chip
	wakec  chan struct{}

	mu       sync.RWMutex // guards draining against concurrent Submits
	draining bool
	started  bool
	closed   bool

	seq   uint64  // next request id (dispatcher-owned)
	lastT float64 // monotone arrival clamp (dispatcher-owned)

	workers    sync.WaitGroup
	dispatcher sync.WaitGroup
}

// NewServer builds the fleet. Every distinct model is prepared once (pruned,
// mapped onto crossbars, its activation traffic routed over the NoC), and
// all of its chips share the one read-only workload; each chip then gets
// its own policy and controller. Those are built in parallel, each into
// its own slot, from inputs fixed before the parallel phase starts, so the
// fleet, and every replay over it, is the same at any GOMAXPROCS. Chips
// share no mutable learning state; the one deliberately shared mutable
// structure is the decision cache (internal/decache), whose entries are
// pure functions of their keys, so cross-chip reuse is safe and chips
// running the same model at the same age bucket replay each other's line-6
// searches.
func NewServer(cfg Config) (*Server, error) {
	if len(cfg.Chips) == 0 {
		return nil, fmt.Errorf("serve: config needs at least one chip")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("serve: config needs a clock (clock.NewReal for live, clock.NewVirtual for replay)")
	}
	cfg = cfg.withDefaults()
	var sys core.System
	if cfg.System != nil {
		sys = *cfg.System
	} else {
		sys = core.DefaultSystem()
	}

	// One decision cache for the whole fleet (unless the caller brought
	// their own or the chips do not cache): same-platform chips hit each
	// other's memoized decisions, and the cache's counters land on the
	// fleet's metrics registry.
	if cfg.Controller.Caches() && cfg.Controller.Cache == nil {
		cfg.Controller.Cache = decache.NewWith(decache.Options{Registry: cfg.Registry})
	}

	s := &Server{
		cfg:       cfg,
		clk:       cfg.Clock,
		met:       newMetrics(cfg.Registry),
		sys:       sys,
		byModel:   make(map[string]*modelIndex),
		workloads: make(map[workloadKey]*core.Workload),
		models:    make(map[string]int),
		events:    make(chan event, 64+len(cfg.Chips)*cfg.QueueDepth),
		jobs:      make(chan *batch, len(cfg.Chips)),
		wakec:     make(chan struct{}, 1),
		drainc:    make(chan chan struct{}),
	}
	router, err := parseRouter(cfg.Router)
	if err != nil {
		return nil, err
	}
	s.router = router
	if s.margin = cfg.DriftMargin; s.margin <= 0 || s.margin >= 1 {
		s.margin = DefaultDriftMargin
	}
	if len(cfg.Tenants) > 0 {
		s.tenants = make(map[string]*tenantState, len(cfg.Tenants))
		s.tenantsOn = true
		for _, tc := range cfg.Tenants {
			if _, dup := s.tenants[tc.Name]; dup {
				return nil, fmt.Errorf("serve: tenant %q configured twice", tc.Name)
			}
			if tc.Quota < 0 {
				return nil, fmt.Errorf("serve: tenant %q quota %d is negative", tc.Name, tc.Quota)
			}
			s.tenants[tc.Name] = &tenantState{
				label: tenantLabel(tc.Name), quota: tc.Quota, prio: tc.Priority,
			}
			if tc.Quota > 0 {
				s.quotaOn = true
			}
		}
	}
	s.inline = s.quotaOn && !cfg.Live

	// Resolve every chip's model in id order, preparing each distinct one
	// before any chip is built: Prepare prunes a custom model in place, and
	// chips may share one. Resolution stops at the first chip that fails.
	chips := make([]chip, len(cfg.Chips))
	wls := make([]*core.Workload, len(cfg.Chips))
	ready := len(chips)
	var resolveErr error
	for i, cc := range cfg.Chips {
		if chips[i].model, wls[i], resolveErr = s.workload(i, cc); resolveErr != nil {
			ready = i
			break
		}
	}
	// Build chips [0, ready) in parallel. ForEach reports the failure with
	// the smallest index, the one a sequential loop would stop on; only if
	// they all build does chip ready's resolution error stand.
	if err := par.ForEach(0, ready, func(i int) error {
		return s.initChip(&chips[i], i, cfg.Chips[i], wls[i])
	}); err != nil {
		return nil, err
	}
	if resolveErr != nil {
		return nil, resolveErr
	}
	s.chips = make([]*chip, 0, len(chips))
	for i := range chips {
		c := &chips[i]
		s.chips = append(s.chips, c)
		s.host(c)
		s.models[c.model]++
		// Seed chips get a series row without a lifecycle event: they are
		// configuration, not churn, so they appear in /statusz from the
		// start while replay event logs stay free of construction noise.
		s.cfg.Pulse.Register(c.id, c.model)
	}
	s.met.fleetChips.Set(float64(s.live))
	return s, nil
}

// host makes a new chip live and routable for its model.
func (s *Server) host(c *chip) {
	mi := s.byModel[c.model]
	if mi == nil {
		mi = newModelIndex()
		s.byModel[c.model] = mi
		s.indexes = append(s.indexes, mi)
	}
	mi.join(c)
	s.live++
	s.reindex(c)
}

// tenantLabel maps the unnamed class to a printable metric label.
func tenantLabel(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

// tenant resolves (and lazily creates) the dispatcher-owned state of one
// admission class. Unconfigured names get a zero-quota, zero-priority
// class; labels come from caller input, so operators own the cardinality.
func (s *Server) tenant(name string) *tenantState {
	ts, ok := s.tenants[name]
	if !ok {
		ts = &tenantState{label: tenantLabel(name)}
		s.tenants[name] = ts
	}
	return ts
}

// workloadKey identifies one prepared model: a zoo model by name, a custom
// model by pointer, so a custom model named like a zoo model is never
// mistaken for it.
type workloadKey struct {
	zoo    string
	custom *dnn.Model
}

// workload resolves chip id's model name and its prepared workload,
// preparing the model on first use. It runs on one goroutine at a time:
// NewServer's, then the dispatcher's.
func (s *Server) workload(id int, cc ChipConfig) (string, *core.Workload, error) {
	name, key := cc.Model, workloadKey{zoo: cc.Model}
	if cc.Custom != nil {
		key = workloadKey{custom: cc.Custom}
		if name == "" {
			name = cc.Custom.Name
		}
	} else if name == "" {
		return "", nil, fmt.Errorf("serve: chip %d names no model", id)
	}
	if wl := s.workloads[key]; wl != nil {
		return name, wl, nil
	}
	model := cc.Custom
	if model == nil {
		m, err := dnn.ByName(name)
		if err != nil {
			return "", nil, fmt.Errorf("serve: chip %d: %w", id, err)
		}
		model = m
	}
	wl, err := s.sys.Prepare(model)
	if err != nil {
		return "", nil, fmt.Errorf("serve: chip %d (%s): %w", id, name, err)
	}
	s.workloads[key] = wl
	return name, wl, nil
}

// newChip resolves and builds one hot-added chip, exactly as NewServer
// builds a seed chip with the same id.
func (s *Server) newChip(id int, cc ChipConfig) (*chip, error) {
	name, wl, err := s.workload(id, cc)
	if err != nil {
		return nil, err
	}
	c := &chip{model: name}
	if err := s.initChip(c, id, cc, wl); err != nil {
		return nil, err
	}
	return c, nil
}

// initChip builds chip id's own parts into c, whose model is resolved: a
// policy seeded from the chip, and a controller over the shared workload
// wired to the fleet's cache and tracer. It writes only c and reads only
// configuration, so NewServer runs it for many chips at once.
func (s *Server) initChip(c *chip, id int, cc ChipConfig, wl *core.Workload) error {
	seed := cc.Seed
	if seed == 0 {
		seed = uint64(id) + 1
	}
	opts := s.cfg.Controller
	if opts.TrainSeed == 0 {
		opts.TrainSeed = seed
	}
	if cc.ProgrammedAt != 0 {
		opts.ProgrammedAt = cc.ProgrammedAt
	}
	if s.cfg.Tracer != nil {
		opts.Tracer, opts.TraceTrack = s.cfg.Tracer, id
	}
	pol := policy.New(policy.Config{Grid: s.sys.Grid(), Seed: seed})
	ctrl, err := core.NewController(s.sys, wl, pol, opts)
	if err != nil {
		return fmt.Errorf("serve: chip %d (%s): %w", id, c.model, err)
	}
	c.id = id
	c.label = strconv.Itoa(id)
	c.ctrl = ctrl
	c.results = make(chan *batch, 1)
	c.nearAt = s.nearFrom(c)
	return nil
}

// Start launches the dispatcher and the worker pool.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		panic("serve: Server started twice")
	}
	s.started = true
	for i := 0; i < s.cfg.Workers && !s.inline; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	s.dispatcher.Add(1)
	go s.dispatch()
}

// Submit stamps an arrival from the server clock and enqueues the request
// under the default tenant class. The returned channel delivers exactly
// one Response (buffered: the caller may drop it without leaking). After
// Close, submissions are rejected immediately with a draining error and
// the RejectedID sentinel.
func (s *Server) Submit(model string) <-chan Response {
	return s.SubmitAs(model, "")
}

// SubmitAs is Submit with an explicit tenant class (see Config.Tenants).
func (s *Server) SubmitAs(model, tenant string) <-chan Response {
	done := make(chan Response, 1)
	req := &Request{Model: model, Tenant: tenant, Arrival: s.clk.Now(), done: done}
	s.mu.RLock()
	if !s.started || s.draining {
		s.mu.RUnlock()
		s.met.requests.Inc()
		s.met.rejected.Inc()
		if p := s.cfg.Pulse; p.Enabled() {
			// Live-only by construction: Replay finishes submitting before
			// Close, so rejection events never appear in replay logs.
			p.Publish(pulse.Event{Kind: pulse.KindShed, Time: req.Arrival,
				Chip: -1, Model: model, Tenant: tenant, Reason: "reject"})
		}
		req.respond(Response{ID: RejectedID, Chip: -1, Rejected: true,
			Err: "odinserve: " + ErrDraining.Error()})
		return done
	}
	// The send must complete under the read lock: Close takes the write lock
	// before flipping draining, so holding RLock here guarantees the
	// dispatcher is still draining events when the send parks — the send
	// cannot deadlock, and releasing the lock first would reopen the
	// admitted-but-dropped race this ordering exists to close.
	s.events <- event{req: req} //lint:allow lockflow -- send under RLock is the admission/drain handshake; dispatcher always drains events while any RLock holder can be admitting
	s.mu.RUnlock()
	return done
}

// sendOp runs one fleet operation through the dispatcher's event stream
// and waits for its reply. The same RLock handshake as SubmitAs keeps the
// send race-free against Close.
func (s *Server) sendOp(op *fleetOp) fleetOpResult {
	op.reply = make(chan fleetOpResult, 1)
	s.mu.RLock()
	if !s.started || s.draining {
		s.mu.RUnlock()
		return fleetOpResult{id: -1, err: fmt.Errorf("serve: %w", ErrDraining)}
	}
	s.events <- event{op: op} //lint:allow lockflow -- send under RLock is the same admission/drain handshake as SubmitAs; dispatcher always drains events while any RLock holder can be admitting
	s.mu.RUnlock()
	return <-op.reply
}

// AddChip hot-adds a chip to the serving fleet and returns its id (ids
// grow monotonically and are never reused). The chip is constructed on
// the dispatcher goroutine, becomes routable for its model immediately,
// and inherits the fleet's shared decision cache and tracer. Fails once
// draining has begun.
func (s *Server) AddChip(cc ChipConfig) (int, error) {
	res := s.sendOp(&fleetOp{add: &cc})
	return res.id, res.err
}

// RemoveChip drains and retires one chip: it stops receiving new work
// immediately, every already-admitted request on its queue (and any batch
// in flight) is executed and answered — the exactly-once contract holds
// through removal — and its historical accumulators stay visible in Stats
// and FleetInfo. Removing the last chip hosting a model makes later
// arrivals for it routing errors (a simulated model outage).
func (s *Server) RemoveChip(id int) error {
	return s.sendOp(&fleetOp{remove: id}).err
}

// FleetInfo snapshots every chip (including removed ones) at the
// dispatcher's current virtual time.
func (s *Server) FleetInfo() ([]ChipInfo, error) {
	res := s.sendOp(&fleetOp{info: true})
	return res.info, res.err
}

// ChipInfo is one chip's row in a FleetInfo or Stats snapshot.
type ChipInfo struct {
	ID            int
	Model         string
	Removed       bool
	Queue         int     // pending requests at snapshot time
	Busy          bool    // a batch was in flight
	Served        uint64  // requests served to completion
	Batches       uint64  // batches executed
	Reprograms    int     // write passes (forced + maintenance)
	PolicyUpdates int     // Algorithm 1 line-11 policy updates
	Energy        float64 // cumulative served energy (J)
	Latency       float64 // cumulative chip-busy time (s)
	Age           float64 // device age at snapshot time
	Degraded      bool    // reprogram budget exhausted
	// DeadlineAge is the forced-reprogram age, +Inf when drift never
	// forces. JSON carries that +Inf as the string "+Inf", which
	// UnmarshalJSON reads back; MarshalJSON's override writes the key
	// last, so the field stays last too.
	DeadlineAge float64
}

// Close stops admissions, drains every admitted request to completion, and
// stops the worker pool. Safe to call once; later calls are no-ops.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.started || s.closed {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.closed = true
	s.mu.Unlock()

	ack := make(chan struct{})
	s.drainc <- ack
	<-ack
	s.dispatcher.Wait()
	close(s.jobs)
	s.workers.Wait()
}

// worker executes batches: one Algorithm 1 decision pass per batch on the
// owning chip's controller. Per-chip mutual exclusion is structural — a
// chip has at most one batch in flight.
func (s *Server) worker() {
	defer s.workers.Done()
	for b := range s.jobs {
		b.rep = b.chip.ctrl.RunBatch(b.start, len(b.reqs))
		b.chip.results <- b
		if s.cfg.Live {
			// Wakes are hints, deduplicated per chip (wakePending bounds the
			// woken set to one entry per chip). The append and the 1-slot
			// notify are both non-blocking — crucially independent of fleet
			// size, unlike the former per-chip-capacity wake channel, which a
			// hot-grown fleet could fill until workers blocked here while the
			// dispatcher blocked in startBatch's jobs send: deadlock. A full
			// wakec just means a sweep is already pending; the dispatcher
			// claims the whole woken set per notify.
			if b.chip.wakePending.CompareAndSwap(false, true) {
				s.wakeMu.Lock()
				s.woken = append(s.woken, b.chip)
				s.wakeMu.Unlock()
				select {
				case s.wakec <- struct{}{}:
				default:
				}
			}
		}
	}
}

// Stats snapshots the fleet as FleetInfo does. Only safe after Close has
// returned: the dispatcher has exited by then, so the caller owns chip
// state.
func (s *Server) Stats() []ChipInfo {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if !closed {
		panic("serve: Stats before Close; chip state is dispatcher-owned while serving")
	}
	return s.fleetInfo()
}

// Draining reports whether Close has begun. Health endpoints use it to
// fail readiness as soon as the server stops admitting.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// RouterName returns the routing policy the server was built with.
func (s *Server) RouterName() string { return s.router.String() }

// Registry returns the metrics registry serving this fleet.
func (s *Server) Registry() *telemetry.Registry { return s.cfg.Registry }

// DecisionCache returns the fleet-shared decision cache (nil when caching
// is disabled).
func (s *Server) DecisionCache() *decache.Cache { return s.cfg.Controller.Cache }
