package pulse

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"odin/internal/telemetry"
)

// Options parameterise a Bus.
type Options struct {
	// Ring bounds how many events are retained for Last-Event-ID resume
	// and WriteLog. 0 keeps everything (replay logging); live servers
	// should bound it (cmd/odinserve defaults to 8192).
	Ring int
	// Interval is the virtual-time width of one series bucket in seconds
	// (default 1).
	Interval float64
	// Registry receives the odin_pulse_* meters; nil creates a private one.
	Registry *telemetry.Registry
}

// Bus is the fan-out event hub: publishers (the serve dispatcher and
// submitters) push events, subscribers (SSE handlers) receive them on
// bounded channels, and the bus maintains the resume ring and the per-chip
// series. All state is guarded by one mutex; the critical section is
// small (ring append, series bucket arithmetic, non-blocking channel
// sends), so publishers — including the serve dispatcher — never block on
// a slow consumer: a subscriber whose channel is full loses the event and
// has the loss counted against it instead.
type Bus struct {
	opts Options

	mu      sync.Mutex
	nextSeq uint64
	ring    []Event // insertion order; bounded by opts.Ring when positive
	head    int     // ring start when saturated
	subs    []*Subscription
	series  map[int]*chipSeries
	order   []int   // sorted chip ids, rebuilt on registration
	lastT   float64 // largest published event time
	rejects uint64  // fleet-level sheds

	events     *telemetry.CounterVec
	dropped    *telemetry.Counter
	evictedCtr *telemetry.Counter
	subsGauge  *telemetry.Gauge
}

// New builds a Bus. See Options for defaults.
func New(opts Options) *Bus {
	if opts.Interval <= 0 {
		opts.Interval = 1
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	r := opts.Registry
	return &Bus{
		opts:   opts,
		series: make(map[int]*chipSeries),
		events: r.CounterVec("odin_pulse_events_total",
			"telemetry events published per kind", "kind"),
		dropped: r.Counter("odin_pulse_dropped_total",
			"events lost to slow subscribers (full channel)"),
		evictedCtr: r.Counter("odin_pulse_ring_evicted_total",
			"events evicted from the resume ring"),
		subsGauge: r.Gauge("odin_pulse_subscribers", "live event subscribers"),
	}
}

// Enabled reports whether the bus records anything; callers gate event
// assembly on it so a nil bus costs one pointer test.
func (b *Bus) Enabled() bool { return b != nil }

// Register creates the chip's series row without publishing an event —
// seed chips are configuration, not lifecycle, so they appear in /statusz
// but not in event logs (hot adds flow through KindLifecycle instead).
func (b *Bus) Register(chip int, model string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.register(chip, model)
	b.mu.Unlock()
}

func (b *Bus) register(chip int, model string) *chipSeries {
	cs, ok := b.series[chip]
	if !ok {
		cs = newChipSeries(model, b.opts)
		b.series[chip] = cs
		b.order = append(b.order, chip)
		sort.Ints(b.order)
	}
	return cs
}

// Publish assigns the event its sequence number, retains it in the resume
// ring, folds it into the owning chip's series, and fans it out. Never
// blocks: subscriber sends are non-blocking, and a full channel counts
// the loss (odin_pulse_dropped_total plus the subscription's own meter)
// instead of stalling the publisher.
func (b *Bus) Publish(e Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.nextSeq++
	e.Seq = b.nextSeq
	if e.Time > b.lastT {
		b.lastT = e.Time
	}
	if n := b.opts.Ring; n > 0 && len(b.ring) == n {
		b.ring[b.head] = e
		b.head = (b.head + 1) % n
		b.evictedCtr.Inc()
	} else {
		b.ring = append(b.ring, e)
	}
	b.observe(e)
	b.events.With(e.Kind.String()).Inc()
	for _, sub := range b.subs {
		if !sub.kinds.Has(e.Kind) {
			continue
		}
		select {
		case sub.ch <- e:
		default:
			sub.dropped.Add(1)
			b.dropped.Inc()
		}
	}
	b.mu.Unlock()
}

// Subscription is one bounded event consumer. Receive from C; Close
// detaches (the channel is never closed by the bus, so a drained server
// simply goes quiet).
type Subscription struct {
	bus     *Bus
	ch      chan Event
	kinds   KindSet
	dropped atomic.Uint64
}

// Subscribe attaches a consumer with the given channel capacity (minimum
// 1) and kind filter.
func (b *Bus) Subscribe(buf int, kinds KindSet) *Subscription {
	if buf < 1 {
		buf = 1
	}
	sub := &Subscription{bus: b, ch: make(chan Event, buf), kinds: kinds}
	b.mu.Lock()
	b.subs = append(b.subs, sub)
	b.subsGauge.Set(float64(len(b.subs)))
	b.mu.Unlock()
	return sub
}

// C is the subscription's event channel.
func (s *Subscription) C() <-chan Event { return s.ch }

// TakeDropped returns and resets the events lost to this subscriber's
// full channel since the last call.
func (s *Subscription) TakeDropped() uint64 { return s.dropped.Swap(0) }

// Close detaches the subscription from the bus.
func (s *Subscription) Close() {
	b := s.bus
	b.mu.Lock()
	for i, sub := range b.subs {
		if sub == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.subsGauge.Set(float64(len(b.subs)))
	b.mu.Unlock()
}

// Since copies the retained events with Seq > seq, in publish order — the
// Last-Event-ID backfill. Resume is best-effort by construction: events
// older than the ring are gone (the SSE handler reports the gap as a
// comment frame). The ring holds consecutive sequence numbers, the newest
// being the last one assigned, so the events after seq are a suffix of it:
// Publish waits while Since copies at most two ring segments into one
// slice of the final length.
func (b *Bus) Since(seq uint64) []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if seq >= b.nextSeq {
		return nil
	}
	older, newer := b.ring[b.head:], b.ring[:b.head]
	if oldest := b.nextSeq - uint64(len(b.ring)) + 1; seq >= oldest {
		skip := int(seq - oldest + 1)
		if skip < len(older) {
			older = older[skip:]
		} else {
			older, newer = nil, newer[skip-len(older):]
		}
	}
	out := make([]Event, len(older)+len(newer))
	copy(out[copy(out, older):], newer)
	return out
}

// LastSeq returns the highest sequence number assigned so far.
func (b *Bus) LastSeq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextSeq
}

// WriteLog emits the canonical event log: one JSON object per line,
// ordered by (virtual time, chip, kind, payload) and renumbered 1..n.
// Live sequence numbers depend on the order in which the dispatcher
// happened to collect the chips' batch results, so they cannot appear in
// replay-stable output; the sort is total because any two events sharing
// (time, chip, kind) differ in payload (distinct batch or request ids), and
// renumbering after the sort makes seq itself canonical. This is the byte
// stream the worker-count invariance property and `make smoke` pin.
func (b *Bus) WriteLog(w io.Writer) error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	evs := make([]Event, 0, len(b.ring))
	n := len(b.ring)
	for i := 0; i < n; i++ {
		evs = append(evs, b.ring[(b.head+i)%n])
	}
	b.mu.Unlock()

	keys := make([]string, len(evs))
	var kb []byte
	for i := range evs {
		e := evs[i]
		e.Seq = 0 // scheduling-dependent; excluded from the sort key
		kb = e.AppendJSON(kb[:0])
		keys[i] = string(kb)
	}
	idx := make([]int, len(evs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, c int) bool {
		ea, ec := &evs[idx[a]], &evs[idx[c]]
		if ea.Time != ec.Time { //lint:allow floateq -- canonical sort key: exact bit-order on identical virtual times, not a tolerance test
			return ea.Time < ec.Time
		}
		if ea.Chip != ec.Chip {
			return ea.Chip < ec.Chip
		}
		if ea.Kind != ec.Kind {
			return ea.Kind < ec.Kind
		}
		return keys[idx[a]] < keys[idx[c]]
	})
	var buf []byte
	for i, j := range idx {
		e := evs[j]
		e.Seq = uint64(i + 1)
		buf = e.AppendJSON(buf[:0])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
