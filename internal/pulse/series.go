package pulse

import (
	"math"

	"odin/internal/telemetry"
)

// LatencyBounds are the histogram bucket bounds used for per-chip latency
// quantiles: decade-and-a-third spacing over the simulated service-time
// range (tens of microseconds to tens of seconds).
var LatencyBounds = []float64{
	1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10,
}

// window bounds the closed buckets retained per chip.
const window = 32

// Bucket is one closed fixed-interval series sample for a chip. Quantiles
// are computed from the bucket's own latency histogram at close; empty
// quantiles render as 0, not NaN, so buckets marshal as plain JSON.
type Bucket struct {
	Start      float64 `json:"start"`      // bucket start (virtual s)
	Completed  int     `json:"completed"`  // requests retired in the bucket
	Batches    int     `json:"batches"`    // batches retired
	Sheds      int     `json:"sheds"`      // requests shed on this chip
	Reprograms int     `json:"reprograms"` // write passes booked
	Energy     float64 `json:"energy"`     // energy retired (J)
	P50        float64 `json:"p50"`        // batch-latency quantiles (s)
	P90        float64 `json:"p90"`
	P99        float64 `json:"p99"`
}

// chipSeries is one chip's downsampled history: a ring of closed buckets,
// the open bucket being filled, and cumulative figures for /statusz.
// Bus.mu guards everything here.
type chipSeries struct {
	model    string
	removed  bool
	interval float64

	cur     Bucket
	started bool                 // cur.Start is meaningful
	hist    *telemetry.Histogram // per-bucket latencies, fresh each bucket
	cum     *telemetry.Histogram // all-time latencies (statusz quantiles)

	closed []Bucket // ring, oldest first once saturated
	head   int

	served, batches, sheds, reprograms, decisions, evals uint64
	queue                                                int
	age, deadline                                        float64
	lastT                                                float64
	strategy                                             string // the last decision's
}

func newChipSeries(model string, opts Options) *chipSeries {
	return &chipSeries{
		model:    model,
		interval: opts.Interval,
		hist:     telemetry.NewHistogram(LatencyBounds),
		cum:      telemetry.NewHistogram(LatencyBounds),
		deadline: math.Inf(1),
	}
}

// roll closes the open bucket if t has moved past it and starts the bucket
// containing t. Gaps (no events for several intervals) stay implicit: only
// buckets that saw events are materialised.
func (cs *chipSeries) roll(t float64) {
	start := math.Floor(t/cs.interval) * cs.interval
	if !cs.started {
		cs.cur = Bucket{Start: start}
		cs.started = true
		return
	}
	if start <= cs.cur.Start {
		return
	}
	cs.closeBucket()
	cs.cur = Bucket{Start: start}
	cs.hist = telemetry.NewHistogram(LatencyBounds)
}

func (cs *chipSeries) closeBucket() {
	b := cs.cur
	b.P50 = finiteOrZero(cs.hist.Quantile(0.50))
	b.P90 = finiteOrZero(cs.hist.Quantile(0.90))
	b.P99 = finiteOrZero(cs.hist.Quantile(0.99))
	if len(cs.closed) < window {
		cs.closed = append(cs.closed, b)
	} else {
		cs.closed[cs.head] = b
		cs.head = (cs.head + 1) % window
	}
}

func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// observe folds one published event into the owning chip's series. Called
// under Bus.mu. Fleet-level events (chip < 0) only count their sheds.
func (b *Bus) observe(e Event) {
	if e.Chip < 0 {
		if e.Kind == KindShed {
			b.rejects++
		}
		return
	}
	cs := b.register(e.Chip, e.Model)
	if e.Time > cs.lastT {
		cs.lastT = e.Time
	}
	cs.roll(e.Time)
	switch e.Kind {
	case KindBatch:
		cs.cur.Completed += e.Size
		cs.cur.Batches++
		cs.cur.Energy += e.Energy
		cs.hist.Observe(e.Latency)
		cs.cum.Observe(e.Latency)
		cs.served += uint64(e.Size)
		cs.batches++
		cs.queue = e.Queue
		cs.age = e.Age
		cs.deadline = e.Deadline
	case KindShed:
		cs.cur.Sheds++
		cs.sheds++
	case KindReprogram:
		cs.cur.Reprograms++
		cs.reprograms++
		cs.age = e.Age
	case KindDecision:
		cs.decisions++
		cs.evals += uint64(e.Evaluations)
		cs.strategy = e.Strategy
	case KindLifecycle:
		if e.Action == "remove" {
			cs.removed = true
			cs.queue = 0
		}
	}
}

// ChipStatus is one chip's row in a Status snapshot: identity, the latest
// drift/queue state, cumulative totals, all-time latency quantiles, and
// the closed-bucket tail (oldest first).
type ChipStatus struct {
	Chip    int    `json:"chip"`
	Model   string `json:"model"`
	Removed bool   `json:"removed,omitempty"`

	Queue     int     `json:"queue"`
	Age       float64 `json:"age"`
	DriftFrac float64 `json:"drift_frac"` // age / forced deadline; 0 when drift never forces

	Served      uint64 `json:"served"`
	Batches     uint64 `json:"batches"`
	Sheds       uint64 `json:"sheds"`
	Reprograms  uint64 `json:"reprograms"`
	Decisions   uint64 `json:"decisions"`
	Evaluations uint64 `json:"evaluations"` // line-6 candidate evaluations over all decisions
	Strategy    string `json:"strategy"`    // the last decision's strategies

	Throughput float64 `json:"throughput"` // last closed bucket, requests/s
	P50        float64 `json:"p50"`        // all-time batch-latency quantiles (s)
	P90        float64 `json:"p90"`
	P99        float64 `json:"p99"`

	Buckets []Bucket `json:"buckets,omitempty"`
}

// Status is the fleet snapshot behind GET /statusz.
type Status struct {
	Seq     uint64       `json:"seq"`     // last published sequence number (= events published)
	Time    float64      `json:"time"`    // largest published event time
	Rejects uint64       `json:"rejects"` // fleet-level sheds (quota, reject)
	Chips   []ChipStatus `json:"chips"`
}

// Snapshot renders every chip's series tail, sorted by chip id. The open
// bucket is not exposed (its quantiles are still moving); Throughput and
// the Buckets tail come from closed buckets only.
func (b *Bus) Snapshot() Status {
	if b == nil {
		return Status{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := Status{Seq: b.nextSeq, Time: b.lastT, Rejects: b.rejects}
	for _, id := range b.order {
		cs := b.series[id]
		row := ChipStatus{
			Chip:        id,
			Model:       cs.model,
			Removed:     cs.removed,
			Queue:       cs.queue,
			Age:         cs.age,
			Served:      cs.served,
			Batches:     cs.batches,
			Sheds:       cs.sheds,
			Reprograms:  cs.reprograms,
			Decisions:   cs.decisions,
			Evaluations: cs.evals,
			Strategy:    cs.strategy,
			P50:         finiteOrZero(cs.cum.Quantile(0.50)),
			P90:         finiteOrZero(cs.cum.Quantile(0.90)),
			P99:         finiteOrZero(cs.cum.Quantile(0.99)),
		}
		if !math.IsInf(cs.deadline, 1) && cs.deadline > 0 {
			row.DriftFrac = cs.age / cs.deadline
		}
		n := len(cs.closed)
		if n > 0 {
			row.Buckets = make([]Bucket, 0, n)
			for i := 0; i < n; i++ {
				row.Buckets = append(row.Buckets, cs.closed[(cs.head+i)%n])
			}
			last := row.Buckets[n-1]
			row.Throughput = float64(last.Completed) / cs.interval
		}
		st.Chips = append(st.Chips, row)
	}
	return st
}
