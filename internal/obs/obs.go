// Package obs is the repository's stdlib-only observability layer: span
// tracing, controller decision auditing, and deterministic structured
// logging across the full inference path (serve → core → search → pim).
//
// # Span model
//
// A Span is a named time interval with typed attributes, an optional
// parent, and a track (the horizontal lane it renders on — one per chip in
// the serving layer). A Tracer records each span with explicit virtual
// start and end times (At) and exports them two ways (export.go): Chrome
// trace-event JSON, loadable in chrome://tracing and Perfetto, and a
// deterministic text flame summary (self/total time plus exact
// p50/p90/p99 per span name).
//
// # Determinism
//
// All span timestamps are float64 seconds on the internal/clock time base:
// replay and simulation record *virtual* times, so a trace is a function
// of the workload, never of the wall clock or goroutine scheduling. Spans
// may be recorded concurrently (the serve worker pool); the collection
// order is scheduling-dependent, so both exporters first sort spans into a
// canonical order (start, end, track, name, attributes) and renumber span
// ids — two runs that record the same span *set* export byte-identical
// artefacts regardless of worker count.
//
// # Disabled fast path
//
// Every entry point is nil-safe: a nil *Tracer records nothing and
// returns a nil *Span, which is a valid (root) parent. Hot paths guard
// with a single pointer test (or none at all — calling through nil is
// legal), so disabled tracing costs one predictable branch. The guard
// TestDisabledObsOverheadGuard (repo root, armed by `make smoke`) keeps the
// disabled controller decision path within noise of the pre-obs reference.
//
// # Decision audit
//
// An AuditLog (audit.go) records, per controller run, every candidate the
// line-6 search scored and which side won each layer; `odinsim trace`
// renders it as an attribution table. Only callers that ask for it pay for
// it: the serving layer's decision events summarise each batch's
// core.RunReport instead of an audit record.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Attr is one typed span attribute. Construct with String, Int, Float or
// Bool; the zero Attr renders as an empty string value.
type Attr struct {
	Key string

	kind  byte // 's', 'i', 'f', 'b'
	str   string
	num   float64
	inum  int64
	truth bool
}

// String returns a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, kind: 's', str: value} }

// Int returns an integer-valued attribute.
func Int(key string, value int) Attr { return Attr{Key: key, kind: 'i', inum: int64(value)} }

// Int64 returns an integer-valued attribute from an int64.
func Int64(key string, value int64) Attr { return Attr{Key: key, kind: 'i', inum: value} }

// Float returns a float-valued attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, kind: 'f', num: value} }

// Bool returns a boolean-valued attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, kind: 'b', truth: value} }

// value renders the attribute value in its canonical text form (floats in
// shortest round-trippable decimal, like the telemetry exposition).
func (a Attr) value() string {
	switch a.kind {
	case 's':
		return a.str
	case 'i':
		return strconv.FormatInt(a.inum, 10)
	case 'f':
		return strconv.FormatFloat(a.num, 'g', -1, 64)
	case 'b':
		return strconv.FormatBool(a.truth)
	}
	return ""
}

// jsonValue renders the attribute value as a JSON literal.
func (a Attr) jsonValue() string {
	switch a.kind {
	case 'i':
		return strconv.FormatInt(a.inum, 10)
	case 'f':
		return jsonFloat(a.num)
	case 'b':
		return strconv.FormatBool(a.truth)
	}
	return strconv.Quote(a.str)
}

// Span is a handle to one recorded interval. Handles exist so children
// can reference their parent; all state lives in the Tracer. A nil *Span
// is a valid no-parent handle.
type Span struct {
	id uint64
}

// record is one finished span as stored by the Tracer.
type record struct {
	id, parent uint64
	name       string
	track      int
	start, end float64
	attrs      []Attr
}

// Tracer collects spans. Create with New (unbounded) or NewRing (keep the
// last cap spans — the /debug/trace ring). A nil *Tracer is a disabled
// tracer: every method is a cheap no-op.
type Tracer struct {
	mu     sync.Mutex
	nextID uint64
	cap    int // 0 = unbounded
	recs   []record
	head   int // ring start when len(recs) == cap
}

// New returns an unbounded Tracer.
func New() *Tracer {
	return &Tracer{nextID: 1}
}

// NewRing returns a Tracer that keeps only the most recent cap spans
// (eviction in record order) — bounded memory for long-lived live serving.
func NewRing(cap int) *Tracer {
	if cap < 1 {
		panic(fmt.Sprintf("obs: ring capacity %d must be positive", cap))
	}
	t := New()
	t.cap = cap
	return t
}

// Enabled reports whether the tracer records anything. Useful to skip
// attribute construction on hot paths.
func (t *Tracer) Enabled() bool { return t != nil }

// At records a finished span with explicit virtual timestamps — a batch's
// virtual execution window, a layer's share of a run's latency — and
// returns a handle usable as a parent for later children. On a nil
// Tracer, At returns nil.
func (t *Tracer) At(name string, track int, start, end float64, parent *Span, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	r := record{name: name, track: track, start: start, end: end, attrs: attrs}
	if parent != nil {
		r.parent = parent.id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r.id = t.nextID
	t.nextID++
	if t.cap > 0 && len(t.recs) == t.cap {
		t.recs[t.head] = r // evict the oldest
		t.head = (t.head + 1) % t.cap
	} else {
		t.recs = append(t.recs, r)
	}
	return &Span{id: r.id}
}

// Len returns the number of recorded spans currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}

// snapshot returns the held records in canonical order with ids renumbered
// 1..n (0 = no parent). Parents evicted from a ring remap to 0. The
// canonical order makes every export byte-identical across recording
// interleavings: spans sort by (start, end, track, name, rendered
// attributes), a total order for any span set whose attribute sets
// distinguish otherwise-identical spans.
func (t *Tracer) snapshot() []record {
	t.mu.Lock()
	out := make([]record, 0, len(t.recs))
	out = append(out, t.recs[t.head:]...)
	out = append(out, t.recs[:t.head]...)
	t.mu.Unlock()

	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		// Exact float ordering is deliberate: equal keys fall through to
		// the next tie-breaker, so no tolerance is wanted here.
		if a.start < b.start {
			return true
		}
		if a.start > b.start {
			return false
		}
		if a.end < b.end {
			return true
		}
		if a.end > b.end {
			return false
		}
		if a.track != b.track {
			return a.track < b.track
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return attrsKey(a.attrs) < attrsKey(b.attrs)
	})
	renumber := make(map[uint64]uint64, len(out))
	for i := range out {
		renumber[out[i].id] = uint64(i + 1)
	}
	for i := range out {
		out[i].id = uint64(i + 1)
		out[i].parent = renumber[out[i].parent] // 0 when absent
	}
	return out
}

// attrsKey renders attributes as a compact sort key.
func attrsKey(attrs []Attr) string {
	var sb strings.Builder
	for _, a := range attrs {
		sb.WriteString(a.Key)
		sb.WriteByte('=')
		sb.WriteString(a.value())
		sb.WriteByte(';')
	}
	return sb.String()
}

// jsonFloat renders a float as a JSON literal (shortest round-trippable
// decimal; JSON has no Inf/NaN, so those render as quoted strings).
func jsonFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if strings.ContainsAny(s, "IN") { // +Inf, -Inf, NaN
		return strconv.Quote(s)
	}
	// Ensure the literal is valid JSON (FormatFloat may emit e.g. "1e+06",
	// which JSON accepts; bare integers are fine too).
	return s
}
