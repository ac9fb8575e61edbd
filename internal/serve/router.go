package serve

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
)

// Config.Router selects one of three arrival-routing policies:
//
//   - "rr" (the default) rotates a per-model cursor over the hosts in id
//     order, once per arrival. It ignores occupancy, so it needs no exact
//     state, and it stays byte-compatible with every replay recorded before
//     routing was configurable.
//   - "least" routes to the host with the fewest outstanding requests
//     (queued, plus one while a batch or a maintenance write pass runs),
//     ties to the lowest chip id.
//   - "drift" is least-loaded routing with a drift penalty. A host is near
//     when its device age is within DriftMargin of its forced-reprogram
//     deadline (accuracy.ReprogramDeadline at the smallest OU: the age at
//     which Algorithm 1 lines 7-8 force a write pass onto whatever batch is
//     running). Near hosts are avoided while any fresher host exists, and
//     an idle, empty near host takes its write pass as off-path maintenance
//     instead, so the stall overlaps idle time rather than a live batch.
//
// least and drift score exact virtual-time state; the per-model index below
// answers them without visiting the hosts whose state did not change.
type router int

const (
	routeRR router = iota
	routeLeast
	routeDrift
)

// routerNames names each policy as Config.Router spells it.
var routerNames = [...]string{routeRR: "rr", routeLeast: "least", routeDrift: "drift"}

func (r router) String() string { return routerNames[r] }

// RouterNames lists the routing policies Config.Router accepts, sorted.
func RouterNames() []string {
	names := append([]string(nil), routerNames[:]...)
	slices.Sort(names)
	return names
}

// parseRouter resolves cfg.Router ("" selects "rr", the replay-compatible
// baseline).
func parseRouter(name string) (router, error) {
	if name == "" {
		return routeRR, nil
	}
	for r, n := range routerNames {
		if n == name {
			return router(r), nil
		}
	}
	return 0, fmt.Errorf("serve: unknown router %q (have %v)", name, RouterNames())
}

// DefaultDriftMargin is the fraction of a chip's forced-reprogram deadline
// at which the drift-aware router starts steering arrivals away from it
// (Config.DriftMargin overrides it). GET /statusz reports the margin in
// force, which `odinserve watch` marks chips "near" by.
const DefaultDriftMargin = 0.85

// modelIndex is the dispatcher's routing index over the live chips hosting
// one model. Each chip carries its keys at the dispatcher's virtual now
// (chip.near, chip.load) and the time they or its state next change on
// their own (chip.next); the dispatcher re-keys a chip whenever it touches
// it, so every routing question costs O(log n) per changed chip:
//
//   - route orders the hosts by (near, load, id), so its root is the
//     least/drift pick (only drift ever marks a chip near);
//   - maint holds the near hosts with load 0: the maintenance candidates;
//   - due orders the hosts by chip.next, so the exact advance visits only
//     chips whose state can change by the arrival time;
//   - near counts the near hosts, which decides the steered counter.
type modelIndex struct {
	chips []*chip // live hosts in id order, the round-robin rotation
	rr    int     // round-robin cursor

	route, maint, due chipHeap
	near              int
}

func newModelIndex() *modelIndex {
	return &modelIndex{
		route: chipHeap{slot: 0, less: func(a, b *chip) bool {
			if a.near != b.near {
				return b.near
			}
			if a.load != b.load {
				return a.load < b.load
			}
			return a.id < b.id
		}},
		maint: chipHeap{slot: 1, less: func(a, b *chip) bool { return a.id < b.id }},
		due:   chipHeap{slot: 2, less: func(a, b *chip) bool { return a.next < b.next }},
	}
}

// join adds a new live chip, whose id is the highest so far; the caller
// keys it with reindex.
func (mi *modelIndex) join(c *chip) {
	c.index = mi
	c.slot = [3]int{-1, -1, -1}
	mi.chips = append(mi.chips, c)
}

// leave removes a retired chip.
func (mi *modelIndex) leave(c *chip) {
	for i, h := range mi.chips {
		if h == c {
			mi.chips = append(mi.chips[:i], mi.chips[i+1:]...)
			break
		}
	}
	mi.route.drop(c)
	mi.maint.drop(c)
	mi.due.drop(c)
	if c.near {
		mi.near--
	}
}

// reindex re-keys chip c at the dispatcher's virtual now after its state
// changed or its next transition came due. It reads only dispatcher-owned
// chip fields, never the controller a worker may be running, so it is safe
// on every path.
func (s *Server) reindex(c *chip) {
	if c.removed {
		return
	}
	mi, t := c.index, s.lastT
	near := t >= c.nearAt
	load := len(c.pending)
	if c.inflight != nil || c.freeAt > t {
		load++
	}
	if near != c.near {
		if near {
			mi.near++
		} else {
			mi.near--
		}
	}
	if near != c.near || load != c.load || c.slot[0] < 0 {
		c.near, c.load = near, load
		mi.route.fix(c)
	}
	if !near || load != 0 {
		mi.maint.drop(c)
	} else if c.slot[1] < 0 {
		heap.Push(&mi.maint, c)
	}
	c.next = c.nextTransition(t)
	mi.due.fix(c)
}

// nextTransition is the virtual time at which c's state or keys next change
// on their own, given its state at t: -Inf while a dispatched batch's
// result is unobserved (the exact advance must block on it), else the
// earliest of the observed batch's finish, the next batch's start, the end
// of a write pass on an idle empty chip (its load drops), and the
// drift-margin crossing.
func (c *chip) nextTransition(t float64) float64 {
	next := math.Inf(1)
	switch b := c.inflight; {
	case b != nil && !b.done:
		return math.Inf(-1)
	case b != nil:
		next = b.finish
	case len(c.pending) > 0:
		next = c.batchStart()
	case c.freeAt > t:
		next = c.freeAt
	}
	if !c.near && c.nearAt < next {
		next = c.nearAt
	}
	return next
}

// batchStart is when an idle chip's next batch starts: once the chip is
// free and its first waiting request has arrived.
func (c *chip) batchStart() float64 {
	start := c.freeAt
	if first := c.pending[0].Arrival; first > start {
		start = first
	}
	return start
}

// nearFrom returns the least float64 time at which the drift router counts
// c as near under its current programming: the first t with Age(t) >=
// margin × ForcedReprogramAge. Age never decreases in t until the next write
// pass, so the test is monotone in t and bisection over the float64 order
// finds the crossing exactly; near(t) is then t >= nearFrom(c) for every
// arrival t. -Inf when c is near from the start, +Inf when drift never
// forces a pass or the router is not drift. It reads the controller, so
// call it only while no batch of c is in flight.
func (s *Server) nearFrom(c *chip) float64 {
	if s.router != routeDrift {
		return math.Inf(1)
	}
	d := c.ctrl.ForcedReprogramAge()
	if math.IsInf(d, 1) {
		return math.Inf(1)
	}
	limit := s.margin * d
	near := func(k uint64) bool { return c.ctrl.Age(fromOrdered(k)) >= limit }
	lo, hi := ordered(math.Inf(-1)), ordered(math.Inf(1))
	if near(lo) {
		return math.Inf(-1)
	}
	if !near(hi) {
		return math.Inf(1)
	}
	for hi-lo > 1 { // near(lo) is false, near(hi) is true
		if mid := lo + (hi-lo)/2; near(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return fromOrdered(hi)
}

// ordered maps a float64 to a uint64 of the same order (-0 just below +0,
// NaNs outside [-Inf, +Inf]); fromOrdered inverts it.
func ordered(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

func fromOrdered(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// chipHeap is an indexed binary min-heap of chips: each chip records its
// position in chip.slot[slot], so a re-keyed chip is fixed, and a retired
// one removed, in O(log n).
type chipHeap struct {
	cs   []*chip
	slot int
	less func(a, b *chip) bool
}

func (h *chipHeap) Len() int           { return len(h.cs) }
func (h *chipHeap) Less(i, j int) bool { return h.less(h.cs[i], h.cs[j]) }

func (h *chipHeap) Swap(i, j int) {
	h.cs[i], h.cs[j] = h.cs[j], h.cs[i]
	h.cs[i].slot[h.slot] = i
	h.cs[j].slot[h.slot] = j
}

func (h *chipHeap) Push(x any) {
	c := x.(*chip)
	c.slot[h.slot] = len(h.cs)
	h.cs = append(h.cs, c)
}

func (h *chipHeap) Pop() any {
	n := len(h.cs) - 1
	c := h.cs[n]
	h.cs[n] = nil
	h.cs = h.cs[:n]
	c.slot[h.slot] = -1
	return c
}

// fix places c in the heap, or restores the order after c's key changed.
func (h *chipHeap) fix(c *chip) {
	if i := c.slot[h.slot]; i >= 0 {
		heap.Fix(h, i)
	} else {
		heap.Push(h, c)
	}
}

// drop removes c when present.
func (h *chipHeap) drop(c *chip) {
	if i := c.slot[h.slot]; i >= 0 {
		heap.Remove(h, i)
	}
}
