// Package pulse is the deterministic streaming-telemetry subsystem behind
// odinserve's live surfaces (GET /events, GET /statusz, `odinserve watch`).
// The serving layer publishes typed events onto a bounded fan-out Bus —
// per-batch retirements, per-run decision summaries, reprogram passes,
// fleet lifecycle, and shed/rejection outcomes — and the bus downsamples
// them into per-chip ring-buffered time series on fixed-interval
// virtual-clock buckets.
//
// # Determinism
//
// Every timestamp on an event is a virtual time taken from internal/clock
// by the publisher; the bus itself never reads a clock. Live sequence
// numbers are assignment-ordered (scheduling-dependent across chips), so
// the canonical export (WriteLog) orders events by (virtual time, chip,
// kind, payload) and renumbers them 1..n — the same collect-then-sort
// barrier obs uses for Chrome traces — which makes replay-mode event logs
// byte-identical at every worker count. Publishers must therefore only put
// scheduling-independent values on events: fields that are pure functions
// of virtual time and of the per-chip batch order (see the publishing
// sites in internal/serve). In particular a decision event summarises its
// batch's core.RunReport, which carries no decision-cache attribution:
// cross-chip cache hits depend on worker scheduling, while everything else
// about a cached decision is byte-identical to the uncached search.
//
// A nil *Bus is a valid no-op: every method is nil-safe and costs one
// pointer test, so disabled instrumentation stays within the obs overhead
// budget (pulse_guard_test.go at the repo root arms the guard).
package pulse

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates event types. The numeric order is the canonical
// tie-break between kinds sharing one (time, chip) instant, chosen to
// match causality: a lifecycle op precedes work on the chip, a batch
// retires before the reprogram pass it forced is booked, and a decision
// for the *next* batch (taken at its start, which can equal the previous
// finish) sorts after both; sheds compare last.
type Kind uint8

const (
	KindLifecycle Kind = iota // hot add/remove
	KindBatch                 // batch retirement
	KindReprogram             // forced or maintenance write pass
	KindDecision              // one controller run's layer-decision summary
	KindShed                  // admission rejection (queue, quota, evict, reject)
	numKinds
)

var kindNames = [numKinds]string{"lifecycle", "batch", "reprogram", "decision", "shed"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// ParseKind resolves an event-type name ("batch", "decision", ...).
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("pulse: unknown event kind %q (want %s)",
		s, strings.Join(kindNames[:], "|"))
}

// KindSet is a filter over event kinds.
type KindSet uint8

// AllKinds passes every event.
const AllKinds = KindSet(1<<numKinds - 1)

// Has reports whether the set admits k.
func (s KindSet) Has(k Kind) bool { return s&(1<<k) != 0 }

// ParseKinds parses a comma-separated kind list ("batch,shed"). The empty
// string means all kinds.
func ParseKinds(spec string) (KindSet, error) {
	if spec == "" {
		return AllKinds, nil
	}
	var out KindSet
	for _, f := range strings.Split(spec, ",") {
		k, err := ParseKind(strings.TrimSpace(f))
		if err != nil {
			return 0, err
		}
		out |= 1 << k
	}
	return out, nil
}

// Event is one telemetry record. Exactly one struct serves every kind
// (flat and allocation-light on the publish path); which fields are
// meaningful — and which JSON keys are emitted — depends on Kind, see
// AppendJSON. Seq is assigned by the bus at publish.
type Event struct {
	Seq  uint64
	Time float64 // virtual time (internal/clock) stamped by the publisher
	Kind Kind
	Chip int // owning chip id; -1 for fleet-level events (quota shed, reject)

	Model  string
	Tenant string // shed: shed tenant label; batch: distinct rider tenants, sorted

	// Shed fields.
	Request uint64 // shed request id
	Reason  string // "queue" | "quota" | "evict" | "reject"

	// Lifecycle fields.
	Action string // "add" | "remove"
	Fleet  int    // live chips after the op

	// Reprogram fields.
	Pass  string // "forced" | "maintenance"
	Count int    // cumulative write passes on the chip after this one

	// Batch fields.
	Batch   uint64  // per-chip batch id
	Size    int     // coalesced riders
	Queue   int     // backlog left behind at the batch's start (see serve)
	Latency float64 // batch virtual latency (s)
	Energy  float64 // batch energy (J)

	// Drift state (batch, reprogram, decision).
	Age      float64
	Deadline float64 // forced-reprogram age; +Inf when drift never forces

	// Decision fields.
	Layers        int
	Evaluations   int
	Disagreements int
	Strategy      string // distinct strategies in first-appearance layer order
	Sizes         string // chosen OU sizes, "RxC" comma-joined in layer order

	Reprogram bool // batch/decision: the run scheduled a reprogram pass
}

// AppendJSON appends the event's canonical JSON object: fixed key order
// per kind, floats in shortest round-trippable form ('g', -1), non-finite
// floats quoted ("+Inf") exactly like the obs trace export. Hand-assembled
// so byte identity is a property of the event values alone, never of
// encoder internals.
func (e *Event) AppendJSON(buf []byte) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, e.Seq, 10)
	buf = append(buf, `,"t":`...)
	buf = appendFloat(buf, e.Time)
	buf = append(buf, `,"kind":"`...)
	buf = append(buf, e.Kind.String()...)
	buf = append(buf, `","chip":`...)
	buf = strconv.AppendInt(buf, int64(e.Chip), 10)
	buf = append(buf, `,"model":`...)
	buf = strconv.AppendQuote(buf, e.Model)
	switch e.Kind {
	case KindLifecycle:
		buf = append(buf, `,"action":`...)
		buf = strconv.AppendQuote(buf, e.Action)
		buf = append(buf, `,"fleet":`...)
		buf = strconv.AppendInt(buf, int64(e.Fleet), 10)
	case KindBatch:
		buf = append(buf, `,"batch":`...)
		buf = strconv.AppendUint(buf, e.Batch, 10)
		buf = append(buf, `,"size":`...)
		buf = strconv.AppendInt(buf, int64(e.Size), 10)
		buf = append(buf, `,"queue":`...)
		buf = strconv.AppendInt(buf, int64(e.Queue), 10)
		buf = append(buf, `,"lat":`...)
		buf = appendFloat(buf, e.Latency)
		buf = append(buf, `,"energy":`...)
		buf = appendFloat(buf, e.Energy)
		buf = append(buf, `,"age":`...)
		buf = appendFloat(buf, e.Age)
		buf = append(buf, `,"deadline":`...)
		buf = appendFloat(buf, e.Deadline)
		buf = append(buf, `,"reprogram":`...)
		buf = strconv.AppendBool(buf, e.Reprogram)
		if e.Tenant != "" {
			buf = append(buf, `,"tenants":`...)
			buf = strconv.AppendQuote(buf, e.Tenant)
		}
	case KindReprogram:
		buf = append(buf, `,"pass":`...)
		buf = strconv.AppendQuote(buf, e.Pass)
		buf = append(buf, `,"count":`...)
		buf = strconv.AppendInt(buf, int64(e.Count), 10)
		buf = append(buf, `,"age":`...)
		buf = appendFloat(buf, e.Age)
	case KindDecision:
		buf = append(buf, `,"layers":`...)
		buf = strconv.AppendInt(buf, int64(e.Layers), 10)
		buf = append(buf, `,"evals":`...)
		buf = strconv.AppendInt(buf, int64(e.Evaluations), 10)
		buf = append(buf, `,"disagree":`...)
		buf = strconv.AppendInt(buf, int64(e.Disagreements), 10)
		buf = append(buf, `,"strategy":`...)
		buf = strconv.AppendQuote(buf, e.Strategy)
		buf = append(buf, `,"sizes":`...)
		buf = strconv.AppendQuote(buf, e.Sizes)
		buf = append(buf, `,"age":`...)
		buf = appendFloat(buf, e.Age)
		buf = append(buf, `,"reprogram":`...)
		buf = strconv.AppendBool(buf, e.Reprogram)
	case KindShed:
		buf = append(buf, `,"request":`...)
		if e.Reason == "reject" {
			// Rejections happen before the dispatcher assigns an id.
			buf = append(buf, `null`...)
		} else {
			buf = strconv.AppendUint(buf, e.Request, 10)
		}
		buf = append(buf, `,"reason":`...)
		buf = strconv.AppendQuote(buf, e.Reason)
		if e.Tenant != "" {
			buf = append(buf, `,"tenant":`...)
			buf = strconv.AppendQuote(buf, e.Tenant)
		}
	}
	return append(buf, '}')
}

// AppendSSE appends the event as one Server-Sent Events frame: id from the
// sequence number (so Last-Event-ID resume works), event from the kind,
// data the canonical JSON.
func (e *Event) AppendSSE(buf []byte) []byte {
	buf = append(buf, "id: "...)
	buf = strconv.AppendUint(buf, e.Seq, 10)
	buf = append(buf, "\nevent: "...)
	buf = append(buf, e.Kind.String()...)
	buf = append(buf, "\ndata: "...)
	buf = e.AppendJSON(buf)
	return append(buf, "\n\n"...)
}

// appendFloat renders a float as a JSON value: shortest round-trippable
// decimal, with non-finite values quoted ("+Inf", "-Inf", "NaN": JSON has
// no such literals) — the obs trace-export convention. It allocates
// nothing when buf has room.
func appendFloat(buf []byte, v float64) []byte {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		buf = append(buf, '"')
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		return append(buf, '"')
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}
