package serve

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"odin/internal/obs"
	"odin/internal/ou"
	"odin/internal/pulse"
)

// dispatch is the single goroutine that owns all routing, admission,
// batching, fleet-lifecycle, and completion bookkeeping. Serialising these
// decisions is what makes replay deterministic; the heavy work (the
// controller's decision pass) still runs concurrently on the worker pool,
// except where the dispatcher would only wait for it (see startBatch).
func (s *Server) dispatch() {
	defer s.dispatcher.Done()
	for {
		select {
		case ev := <-s.events:
			s.handle(ev)
		case <-s.wakec:
			// Live mode only (workers never signal otherwise): one or more
			// batches finished, so retire them and keep their chips busy with
			// whatever is queued, without waiting for the next arrival. Clear
			// each dedup flag before advancing, so a completion landing
			// mid-advance re-arms the hint instead of being lost (the worker
			// sends its result before the hint, so a CAS lost to the window
			// between takeWoken and the Store is observed by the advance).
			for _, c := range s.takeWoken() {
				c.wakePending.Store(false)
				s.onWake(c)
			}
		case ack := <-s.drainc:
			// Every Submit completed before Close flipped draining, so the
			// remaining admitted traffic is all buffered in events.
			for {
				select {
				case ev := <-s.events:
					s.handle(ev)
					continue
				default:
				}
				break
			}
			s.flush()
			close(ack)
			return
		}
	}
}

// takeWoken claims the current set of Live-mode completion hints. Chips
// appear at most once (wakePending), in worker completion order; that
// order only affects how eagerly queues refill, never batch composition,
// which is a pure function of virtual time (and Live mode is outside the
// replay determinism contract anyway).
func (s *Server) takeWoken() []*chip {
	s.wakeMu.Lock()
	w := s.woken
	s.woken = nil
	s.wakeMu.Unlock()
	return w
}

// handle demultiplexes one event-stream entry.
func (s *Server) handle(ev event) {
	if ev.op != nil {
		s.handleOp(ev.op)
		return
	}
	s.process(ev.req)
}

// handleOp executes one fleet operation on the dispatcher goroutine, where
// all chip state is owned.
func (s *Server) handleOp(op *fleetOp) {
	switch {
	case op.add != nil:
		id := len(s.chips)
		c, err := s.newChip(id, *op.add)
		if err != nil {
			op.reply <- fleetOpResult{id: -1, err: err}
			return
		}
		s.chips = append(s.chips, c)
		s.host(c)
		s.modelsMu.Lock()
		s.models[c.model]++
		s.modelsMu.Unlock()
		s.met.chipsAdded.Inc()
		s.met.fleetChips.Set(float64(s.live))
		if p := s.cfg.Pulse; p.Enabled() {
			// Ops ride the dispatcher's event stream, so s.lastT (the last
			// arrival's time) is the op's deterministic virtual position.
			p.Publish(pulse.Event{Kind: pulse.KindLifecycle, Time: s.lastT,
				Chip: c.id, Model: c.model, Action: "add", Fleet: s.live})
		}
		s.logAt(s.lastT, slog.LevelInfo, "chip added", "chip", c.id, "model", c.model)
		op.reply <- fleetOpResult{id: id}

	case op.info:
		op.reply <- fleetOpResult{id: -1, info: s.fleetInfo()}

	default:
		op.reply <- fleetOpResult{id: -1, err: s.removeChip(op.remove)}
	}
}

// removeChip drains and retires one chip. The synchronous advance to +Inf
// executes every admitted request (queued and in flight) at its natural
// virtual time, so responses are delivered exactly once and the chip's
// accumulators close out deterministically; only then does the chip leave
// its model's index.
func (s *Server) removeChip(id int) error {
	if id < 0 || id >= len(s.chips) {
		return fmt.Errorf("serve: no chip %d", id)
	}
	c := s.chips[id]
	if c.removed {
		return fmt.Errorf("serve: chip %d already removed", id)
	}
	s.advance(c, math.Inf(1), true)
	c.removed = true
	c.index.leave(c)
	s.live--
	s.modelsMu.Lock()
	if s.models[c.model]--; s.models[c.model] == 0 {
		delete(s.models, c.model)
	}
	s.modelsMu.Unlock()
	s.met.chipsRemoved.Inc()
	s.met.fleetChips.Set(float64(s.live))
	s.met.chipDepth.With(c.label).Set(0)
	if p := s.cfg.Pulse; p.Enabled() {
		p.Publish(pulse.Event{Kind: pulse.KindLifecycle, Time: s.lastT,
			Chip: c.id, Model: c.model, Action: "remove", Fleet: s.live})
	}
	s.logAt(s.lastT, slog.LevelInfo, "chip removed", "chip", c.id, "model", c.model,
		"served", c.served)
	return nil
}

// fleetInfo snapshots every chip at the dispatcher's current virtual time.
// Observing a still-running batch result first (blocking) establishes the
// happens-before edge that makes the controller reads race-free. Such a
// chip stays due in its model's index (its next transition was the
// unobserved result), so the next exact advance re-keys it.
func (s *Server) fleetInfo() []ChipInfo {
	t := s.lastT
	out := make([]ChipInfo, len(s.chips))
	for i, c := range s.chips {
		if b := c.inflight; b != nil && !b.done {
			s.finishBatch(<-c.results)
		}
		out[i] = ChipInfo{
			ID:            c.id,
			Model:         c.model,
			Removed:       c.removed,
			Queue:         len(c.pending),
			Busy:          c.inflight != nil,
			Served:        c.served,
			Batches:       c.batches,
			Reprograms:    c.ctrl.Reprograms(),
			PolicyUpdates: c.ctrl.PolicyUpdates(),
			Energy:        c.energySum,
			Latency:       c.latencySum,
			Age:           c.ctrl.Age(t),
			DeadlineAge:   c.ctrl.ForcedReprogramAge(),
			Degraded:      c.degraded,
		}
	}
	return out
}

// onWake handles a Live-mode completion signal. Advancing to +Inf retires
// the finished batch and dispatches the next one unconditionally — the
// formation rule (start at max(freeAt, first arrival), coalesce the prefix
// with arrival <= start) is unchanged; only the *when* is eager. Real time
// may lag the chip's virtual finish under overload, so gating on a clock
// read here could strand queued requests until the next arrival.
func (s *Server) onWake(c *chip) {
	s.advance(c, math.Inf(1), false)
	s.met.chipDepth.With(c.label).Set(float64(len(c.pending)))
}

// process handles one arrival: route, admission-control, enqueue (or shed),
// and kick the target chip's virtual-time machinery.
func (s *Server) process(req *Request) {
	req.ID = s.seq
	s.seq++
	// Live-mode submitters stamp arrivals concurrently; clamp them monotone
	// so per-chip virtual time never runs backwards. Replay's single
	// submitter is already monotone and is never clamped.
	if req.Arrival < s.lastT {
		req.Arrival = s.lastT
	}
	s.lastT = req.Arrival
	s.met.requests.Inc()
	if s.tenantsOn {
		req.ten = s.tenant(req.Tenant)
		s.met.tenantRequests.With(req.ten.label).Inc()
	}

	mi := s.byModel[req.Model]
	if mi == nil || len(mi.chips) == 0 {
		s.met.errors.Inc()
		req.respond(Response{ID: req.ID, Chip: -1, Err: "odinserve: unknown model " + req.Model})
		return
	}
	t := req.Arrival

	// Tenant quotas gate on *outstanding* counts, which are only exact once
	// every chip has retired the batches whose virtual finish passed t —
	// without the fleet-wide advance, the counts would depend on how
	// eagerly worker results were observed and replay would diverge across
	// worker counts.
	if s.quotaOn {
		s.advanceDue(t, s.indexes...)
		if ten := req.ten; ten.quota > 0 && ten.outstanding >= ten.quota {
			s.met.shed.Inc()
			s.met.quotaShed.Inc()
			s.met.tenantShed.With(ten.label).Inc()
			if tr := s.cfg.Tracer; tr.Enabled() {
				tr.At("quota-shed", mi.chips[0].id, t, t, nil,
					obs.Int64("request", int64(req.ID)),
					obs.String("tenant", ten.label))
			}
			if p := s.cfg.Pulse; p.Enabled() {
				p.Publish(pulse.Event{Kind: pulse.KindShed, Time: t, Chip: -1,
					Model: req.Model, Request: req.ID, Reason: "quota", Tenant: ten.label})
			}
			req.respond(Response{ID: req.ID, Chip: -1, Shed: true})
			return
		}
	}
	c := s.route(mi, t)

	// Observe any completions that are already available; this keeps queue
	// occupancy tight without stalling the accept path.
	s.advance(c, t, false)
	if len(c.pending) >= s.cfg.QueueDepth {
		// The queue looks full, but deferred completions may have virtually
		// freed it. Admission must be exact: synchronously advance to t.
		s.advance(c, t, true)
	}
	if len(c.pending) >= s.cfg.QueueDepth && s.tenantsOn {
		// Priority preemption: a higher-priority arrival evicts the newest
		// queued request of the lowest class below it. Queue state is exact
		// here (the blocking advance above), so the victim choice is a pure
		// function of virtual time.
		s.evictFor(c, req, t)
	}
	if len(c.pending) >= s.cfg.QueueDepth {
		s.met.shed.Inc()
		if s.tenantsOn {
			s.met.tenantShed.With(req.ten.label).Inc()
		}
		// Zero-width marker on the chip's track. Shed decisions are exact
		// under replay (the admission path synchronously advanced to t), so
		// the marker's content is deterministic.
		if tr := s.cfg.Tracer; tr.Enabled() {
			tr.At("shed", c.id, t, t, nil,
				obs.Int64("request", int64(req.ID)),
				obs.String("model", req.Model))
		}
		if p := s.cfg.Pulse; p.Enabled() {
			ev := pulse.Event{Kind: pulse.KindShed, Time: t, Chip: c.id,
				Model: req.Model, Request: req.ID, Reason: "queue"}
			if s.tenantsOn {
				ev.Tenant = req.ten.label
			}
			p.Publish(ev)
		}
		req.respond(Response{ID: req.ID, Chip: c.id, Shed: true})
		return
	}
	s.met.admitted.Inc()
	if s.tenantsOn {
		s.met.tenantAdmitted.With(req.ten.label).Inc()
		req.ten.outstanding++
	}
	s.met.queueDepth.Observe(float64(len(c.pending)))
	c.pending = append(c.pending, req)
	// If the chip is known-idle this dispatches immediately; otherwise the
	// request waits for the in-flight batch's virtual completion. Live mode
	// advances to +Inf, as onWake does: a decision pass can take less wall
	// time than its batch's modelled latency, so an idle chip's virtual
	// free time can lie past this arrival's clock reading, and gating on t
	// would strand the request — no batch is in flight to wake the chip.
	if s.cfg.Live {
		t = math.Inf(1)
	}
	s.advance(c, t, false)
	s.met.chipDepth.With(c.label).Set(float64(len(c.pending)))
}

// evictFor makes room on a full queue for a higher-priority arrival: the
// victim is the newest pending request of the lowest priority class
// strictly below the arrival's, and it is shed in the arrival's place.
// No-op when nothing outranks.
func (s *Server) evictFor(c *chip, req *Request, t float64) {
	prio := 0
	if req.ten != nil {
		prio = req.ten.prio
	}
	vi, vp := -1, prio
	for i, r := range c.pending {
		p := 0
		if r.ten != nil {
			p = r.ten.prio
		}
		if p < vp {
			vi, vp = i, p
		} else if vi >= 0 && p == vp {
			vi = i // newest within the lowest class
		}
	}
	if vi < 0 {
		return
	}
	victim := c.pending[vi]
	c.pending = append(c.pending[:vi], c.pending[vi+1:]...)
	s.met.shed.Inc()
	s.met.evicted.Inc()
	if victim.ten != nil {
		s.met.tenantShed.With(victim.ten.label).Inc()
		victim.ten.outstanding--
	}
	if tr := s.cfg.Tracer; tr.Enabled() {
		tr.At("evict", c.id, t, t, nil,
			obs.Int64("request", int64(victim.ID)),
			obs.Int64("by", int64(req.ID)))
	}
	if p := s.cfg.Pulse; p.Enabled() {
		ev := pulse.Event{Kind: pulse.KindShed, Time: t, Chip: c.id,
			Model: victim.Model, Request: victim.ID, Reason: "evict"}
		if victim.ten != nil {
			ev.Tenant = victim.ten.label
		}
		p.Publish(ev)
	}
	victim.respond(Response{ID: victim.ID, Chip: c.id, Shed: true})
}

// route picks the chip that serves an arrival of mi's model at t. rr
// rotates its cursor; least and drift first bring the model's hosts to
// exact state at t (the quota path already advanced the whole fleet), give
// idle near hosts their maintenance pass, and take the index's pick.
func (s *Server) route(mi *modelIndex, t float64) *chip {
	if s.router == routeRR {
		c := mi.chips[mi.rr%len(mi.chips)]
		mi.rr++
		return c
	}
	if !s.quotaOn {
		s.advanceDue(t, mi)
	}
	if s.checkRoute != nil {
		s.checkRoute(mi, t)
	}
	s.maintain(mi, t)
	if s.checkRoute != nil {
		s.checkRoute(mi, t)
	}
	c := mi.route.cs[0]
	if !c.near && mi.near > 0 {
		s.met.steered.Inc()
	}
	return c
}

// advanceDue synchronously advances to t, in chip-id order, every chip of
// the given models whose next transition is due by t. Every other chip is
// already exact at t — advancing it would change nothing — so this makes
// the same finishBatch, startBatch and metric calls, in the same order, as
// advancing every chip in id order.
func (s *Server) advanceDue(t float64, indexes ...*modelIndex) {
	due := s.scratch[:0]
	for _, mi := range indexes {
		for len(mi.due.cs) > 0 && mi.due.cs[0].next <= t {
			due = append(due, heap.Pop(&mi.due).(*chip))
		}
	}
	slices.SortFunc(due, func(a, b *chip) int { return cmp.Compare(a.id, b.id) })
	for _, c := range due {
		s.advance(c, t, true)
	}
	clear(due)
	s.scratch = due[:0]
}

// maintain gives every idle, empty near host of mi its reprogram pass now,
// in chip-id order, off the latency path while the pick steers arrivals
// elsewhere. The write stall occupies the chip's idle time — freeAt moves
// past the pass, so a batch formed later starts after it — instead of
// riding on a live batch. Only exact virtual-time state reaches here, so
// the maintenance schedule replays exactly and the controller reads are
// race-free.
func (s *Server) maintain(mi *modelIndex, t float64) {
	// Pop every candidate before the first pass, so each is visited once
	// even if a zero-latency pass leaves it near and idle.
	cands := s.scratch[:0]
	for len(mi.maint.cs) > 0 {
		cands = append(cands, heap.Pop(&mi.maint).(*chip))
	}
	for _, c := range cands {
		energy, lat := c.ctrl.Reprogram(t)
		c.freeAt = t + lat
		c.energySum += energy
		c.latencySum += lat
		s.met.maintenance.Inc()
		s.met.chipReprogram.With(c.label).Inc()
		s.met.chipEnergy.With(c.label).Set(c.energySum)
		if p := s.cfg.Pulse; p.Enabled() {
			p.Publish(pulse.Event{Kind: pulse.KindReprogram, Time: t, Chip: c.id,
				Model: c.model, Pass: "maintenance", Count: c.ctrl.Reprograms(),
				Age: c.ctrl.Age(t)})
		}
		s.noteReprogram(c, t)
		c.nearAt = s.nearFrom(c)
		s.reindex(c)
	}
	clear(cands)
	s.scratch = cands[:0]
}

// noteReprogram applies the reprogram-budget bookkeeping shared by forced
// (on-path) and maintenance passes; t is the write pass's virtual time.
func (s *Server) noteReprogram(c *chip, t float64) {
	if s.cfg.ReprogramBudget > 0 && !c.degraded && c.ctrl.Reprograms() >= s.cfg.ReprogramBudget {
		c.degraded = true
		s.met.chipDegraded.With(c.label).Set(1)
		s.logAt(t, slog.LevelWarn, "chip degraded",
			"chip", c.id, "model", c.model,
			"reprograms", c.ctrl.Reprograms(),
			"budget", s.cfg.ReprogramBudget)
	}
}

// logAt logs one serve action stamped with its virtual time t. The
// dispatcher reports actions after the fact while a replay's submitter
// keeps moving the shared clock, so a clock read here would race it.
func (s *Server) logAt(t float64, level slog.Level, msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Log(obs.WithTime(context.Background(), t), level, msg, args...)
	}
}

// advance moves chip c's virtual time forward to t: it observes worker
// results (blocking for the in-flight one when block is set), retires
// batches whose virtual finish has passed, and forms/dispatches successor
// batches, then re-keys c in its model's index. Batch composition depends
// only on virtual time (arrival timestamps and deterministic service
// times), never on when results happened to be observed — see the package
// comment's determinism argument.
func (s *Server) advance(c *chip, t float64, block bool) {
	defer s.reindex(c)
	for {
		if b := c.inflight; b != nil {
			if !b.done {
				if block {
					s.finishBatch(<-c.results)
				} else {
					select {
					case bb := <-c.results:
						s.finishBatch(bb)
					default:
						return
					}
				}
			}
			if b.finish > t {
				return
			}
			// The batch is virtually complete: retire it. Tenant outstanding
			// counts decrement here — at the virtual finish, not at result
			// observation — so quota checks see occupancy that is a pure
			// function of virtual time.
			if s.tenantsOn {
				for _, r := range b.reqs {
					if r.ten != nil {
						r.ten.outstanding--
					}
				}
			}
			c.freeAt = b.finish
			c.inflight = nil
			continue
		}
		if len(c.pending) == 0 {
			return
		}
		// Chip idle: the next batch starts when work and chip first
		// coincide, and coalesces the waiting prefix present at that
		// virtual instant.
		start := c.batchStart()
		if start > t {
			return
		}
		n := 0
		for n < len(c.pending) && n < s.cfg.MaxBatch && c.pending[n].Arrival <= start {
			n++
		}
		s.startBatch(c, start, n)
	}
}

// startBatch forms a batch from the first n pending requests and hands it
// to the worker pool. The jobs channel was sized one slot per seed chip;
// a fleet grown past that can make the send block briefly until a worker
// frees a slot — safe, because workers always drain: the per-chip results
// channel (capacity 1, at most one batch in flight per chip) and the
// woken-set wake hint (mutex append + non-blocking 1-slot notify) never
// block a worker, at any fleet size.
//
// With s.inline the dispatcher runs the decision pass itself and posts the
// result as a worker would, so it is observed at the same advance calls as
// a pooled batch whose worker has already finished.
func (s *Server) startBatch(c *chip, start float64, n int) {
	reqs := make([]*Request, n)
	copy(reqs, c.pending[:n])
	copy(c.pending, c.pending[n:])
	c.pending = c.pending[:len(c.pending)-n]

	b := &batch{chip: c, id: c.batches, start: start, reqs: reqs}
	if s.cfg.Pulse.Enabled() {
		// Backlog left behind at the batch's start — the pending prefix
		// with arrival <= start (pending is FIFO in clamped arrival order,
		// so the first later arrival ends the count). A pure function of
		// virtual time, unlike len(pending) at result observation; see the
		// batch.depth comment.
		for _, r := range c.pending {
			if r.Arrival > start {
				break
			}
			b.depth++
		}
	}
	c.batches++
	c.inflight = b
	s.met.batches.Inc()
	s.met.batchSize.Observe(float64(n))
	s.met.chipBatches.With(c.label).Inc()
	if s.inline {
		b.rep = c.ctrl.RunBatch(b.start, len(b.reqs))
		c.results <- b
		return
	}
	s.jobs <- b
}

// finishBatch ingests a worker result: computes the batch's virtual finish,
// responds to every rider, and books the chip's deterministic accumulators
// and telemetry. Requests in a batch execute back-to-back, so rider i waits
// an extra i service times.
func (s *Server) finishBatch(b *batch) {
	c := b.chip
	rep := b.rep
	b.finish = b.start + rep.BatchLatency()
	b.done = true
	// Span content is a pure function of the batch (virtual start, riders,
	// deterministic report); only *when* finishBatch observes the result is
	// scheduling-dependent, and canonical export ordering hides that.
	var span *obs.Span
	if tr := s.cfg.Tracer; tr.Enabled() {
		span = tr.At("batch", c.id, b.start, b.finish, nil,
			obs.String("model", c.model),
			obs.Int64("batch", int64(b.id)),
			obs.Int("size", len(b.reqs)),
			obs.Float("energy", rep.BatchEnergy()),
			obs.Bool("reprogrammed", rep.Reprogrammed))
	}
	for i, r := range b.reqs {
		wait := b.start + float64(i)*rep.Latency - r.Arrival
		if span != nil {
			s.cfg.Tracer.At("request", c.id,
				r.Arrival, b.start+float64(i+1)*rep.Latency, span,
				obs.Int64("request", int64(r.ID)),
				obs.Float("wait", wait))
		}
		r.respond(Response{
			ID:           r.ID,
			Chip:         c.id,
			Batch:        b.id,
			Sizes:        rep.Sizes,
			Energy:       rep.Energy,
			Latency:      rep.Latency,
			Wait:         wait,
			Accuracy:     rep.Accuracy,
			Reprogrammed: rep.Reprogrammed,
		})
		s.met.completed.Inc()
		s.met.queueWait.Observe(wait)
	}
	c.served += uint64(len(b.reqs))
	c.energySum += rep.BatchEnergy()
	c.latencySum += rep.BatchLatency()
	s.met.chipEnergy.With(c.label).Set(c.energySum)
	if p := s.cfg.Pulse; p.Enabled() {
		// The run's decision summary leaves just before its batch. Every
		// field comes from the report, which is byte-identical whether the
		// decisions were searched or replayed from the shared cache (the
		// decache contract); the report carries no cache attribution,
		// which depends on cross-chip scheduling.
		p.Publish(pulse.Event{Kind: pulse.KindDecision, Time: rep.Time, Chip: c.id,
			Model: c.model, Layers: len(rep.Sizes), Evaluations: rep.SearchEvaluations,
			Disagreements: rep.Disagreements, Strategy: rep.Strategies,
			Sizes: sizesLabel(rep.Sizes), Age: rep.Age, Reprogram: rep.Reprogrammed})
		// Everything on the event is a pure function of the batch: its
		// virtual start/finish, the deterministic report, the start-time
		// backlog (b.depth), and the controller's post-batch drift state —
		// the next batch cannot have run (one in flight per chip), and
		// maintenance passes require an idle chip, so Age/Reprograms here
		// are the chip's exact state after batch b regardless of when the
		// dispatcher observed the result.
		ev := pulse.Event{Kind: pulse.KindBatch, Time: b.finish, Chip: c.id,
			Model: c.model, Batch: b.id, Size: len(b.reqs), Queue: b.depth,
			Latency: rep.BatchLatency(), Energy: rep.BatchEnergy(),
			Age: c.ctrl.Age(b.finish), Deadline: c.ctrl.ForcedReprogramAge(),
			Reprogram: rep.Reprogrammed}
		if s.tenantsOn {
			ev.Tenant = batchTenants(b.reqs)
		}
		p.Publish(ev)
		if rep.Reprogrammed {
			p.Publish(pulse.Event{Kind: pulse.KindReprogram, Time: b.finish,
				Chip: c.id, Model: c.model, Pass: "forced",
				Count: c.ctrl.Reprograms(), Age: c.ctrl.Age(b.finish)})
		}
	}
	if rep.PolicyUpdated {
		s.met.chipUpdates.With(c.label).Inc()
	}
	if rep.Reprogrammed {
		s.met.chipReprogram.With(c.label).Add(uint64(rep.ReprogramPasses))
		s.met.reprogramOnPath.Add(uint64(len(b.reqs)))
		s.noteReprogram(c, b.start) // the controller writes at the batch start
		c.nearAt = s.nearFrom(c)
	}
}

// sizesLabel renders OU sizes as "RxC", comma-joined in layer order.
func sizesLabel(sizes []ou.Size) string {
	return string(appendSizes(make([]byte, 0, 8*len(sizes)), sizes))
}

// appendSizes appends sizesLabel's rendering of sizes to dst.
func appendSizes(dst []byte, sizes []ou.Size) []byte {
	for i, sz := range sizes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(sz.R), 10)
		dst = append(dst, 'x')
		dst = strconv.AppendInt(dst, int64(sz.C), 10)
	}
	return dst
}

// batchTenants renders the batch's distinct rider tenant labels, sorted —
// deterministic because it depends only on batch composition.
func batchTenants(reqs []*Request) string {
	var labels []string
	for _, r := range reqs {
		l := tenantLabel(r.Tenant)
		seen := false
		for _, s := range labels {
			if s == l {
				seen = true
				break
			}
		}
		if !seen {
			labels = append(labels, l)
		}
	}
	sort.Strings(labels)
	return strings.Join(labels, ",")
}

// flush drains the whole fleet: every admitted request is executed and
// answered. Chips flush in id order so post-drain accumulations are
// reproducible.
func (s *Server) flush() {
	for _, c := range s.chips {
		s.advance(c, math.Inf(1), true)
		s.met.chipDepth.With(c.label).Set(0)
	}
	s.logAt(s.lastT, slog.LevelInfo, "fleet drained", "chips", len(s.chips))
}
