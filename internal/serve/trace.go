package serve

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"

	"odin/internal/clock"
	"odin/internal/rng"
)

// Arrival is one entry of a synthetic load trace.
type Arrival struct {
	Time   float64 // seconds since trace start
	Model  string
	Tenant string // admission class ("" = default); see Config.Tenants
}

// Trace is an arrival sequence in nondecreasing time order.
type Trace []Arrival

// TraceConfig parameterises the deterministic load generator.
type TraceConfig struct {
	// Seed labels the rng stream; the same config always yields the same
	// trace.
	Seed uint64
	// Rate is the mean arrival rate in requests per second (Poisson
	// process: exponential interarrival gaps).
	Rate float64
	// Requests is the trace length.
	Requests int
	// Models is the request mix, drawn uniformly per arrival.
	Models []string
	// Tenants, when non-empty, stamps each arrival with a tenant drawn
	// uniformly (one extra rng draw per arrival; tenant-free configs are
	// bit-identical to traces generated before this field existed).
	Tenants []string
}

// GenTrace draws a Poisson arrival trace from internal/rng. Same config,
// same trace — bit for bit.
func GenTrace(cfg TraceConfig) (Trace, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("serve: trace rate %g must be positive", cfg.Rate)
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("serve: trace needs a positive request count")
	}
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("serve: trace needs at least one model")
	}
	src := rng.New(cfg.Seed)
	tr := make(Trace, 0, cfg.Requests)
	var t float64
	for i := 0; i < cfg.Requests; i++ {
		// Exponential gap; Float64 is in [0,1) so the argument is in (0,1].
		t += -math.Log(1-src.Float64()) / cfg.Rate
		model := cfg.Models[src.Intn(len(cfg.Models))]
		a := Arrival{Time: t, Model: model}
		if len(cfg.Tenants) > 0 {
			a.Tenant = cfg.Tenants[src.Intn(len(cfg.Tenants))]
		}
		tr = append(tr, a)
	}
	return tr, nil
}

// ReplayResult aggregates one deterministic replay. All float totals are
// accumulated in request-id order, so two replays of the same trace agree
// bit for bit.
type ReplayResult struct {
	Responses []Response // indexed by request id (= trace order)

	Admitted  int
	Shed      int
	Errors    int
	Rejected  int // submissions rejected while draining (RejectedID sentinel)
	Reprogram int // requests whose batch triggered a reprogramming pass

	Energy  float64 // Σ per-request inference energy (J)
	Latency float64 // Σ per-request service latency (s)
	Wait    float64 // Σ per-request queue wait (s)

	// Checksum fingerprints the decision log (FNV-1a over the exact bytes
	// WriteLog emits) — the replay-stability handle `make smoke` checks.
	Checksum uint64
}

// Replay drives a trace through the server on its virtual clock and
// collects every response. The server must have been built with clk as its
// Clock and already started; Replay closes it when the trace is exhausted.
func Replay(s *Server, clk *clock.Virtual, tr Trace) ReplayResult {
	return ReplayOps(s, clk, tr, nil)
}

// FleetOp schedules one fleet mutation inside a replayed trace: before
// arrival index After is submitted, the op is applied (Add when non-nil,
// otherwise Remove). Interleaving ops with the arrival sequence this way
// pins their order exactly, so churned replays stay byte-identical at
// every worker count.
type FleetOp struct {
	After  int         // apply before submitting arrival After (0 = before the first)
	Add    *ChipConfig // add a chip when non-nil
	Remove int         // chip id to drain and remove when Add == nil
}

// ReplayOps is Replay with a fleet-op schedule (ops must be sorted by
// After; After past the end applies after the last arrival). A failing op
// panics: replay schedules are test/experiment infrastructure, and a
// misconstructed one is a programming error, not a runtime condition.
func ReplayOps(s *Server, clk *clock.Virtual, tr Trace, ops []FleetOp) ReplayResult {
	next := 0
	apply := func(i int) {
		for next < len(ops) && ops[next].After <= i {
			op := ops[next]
			next++
			var err error
			if op.Add != nil {
				_, err = s.AddChip(*op.Add)
			} else {
				err = s.RemoveChip(op.Remove)
			}
			if err != nil {
				panic(fmt.Sprintf("serve: replay fleet op %d: %v", next-1, err))
			}
		}
	}
	chans := make([]<-chan Response, len(tr))
	for i, a := range tr {
		apply(i)
		clk.Set(a.Time)
		chans[i] = s.SubmitAs(a.Model, a.Tenant)
	}
	apply(len(tr))
	s.Close()

	res := ReplayResult{Responses: make([]Response, len(tr))}
	for i := range chans {
		r := <-chans[i]
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
			res.Energy += r.Energy
			res.Latency += r.Latency
			res.Wait += r.Wait
			if r.Reprogrammed {
				res.Reprogram++
			}
		}
	}
	h := fnv.New64a()
	_ = res.WriteLog(h) // hash.Hash.Write never fails, so WriteLog cannot
	res.Checksum = h.Sum64()
	return res
}

// WriteLog renders the per-request OU decision log: one line per request in
// request-id order, byte-identical across replays of the same trace/seed.
// Each line is appended into one reused buffer and written with one Write.
func (r ReplayResult) WriteLog(w io.Writer) error {
	line := make([]byte, 0, 256)
	for i := range r.Responses {
		line = appendLogLine(line[:0], &r.Responses[i])
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// appendLogLine appends one request's decision-log line to dst.
func appendLogLine(dst []byte, resp *Response) []byte {
	dst = append(dst, "req="...)
	if resp.Rejected {
		dst = append(dst, "rejected"...)
	} else {
		dst = strconv.AppendUint(dst, resp.ID, 10)
	}
	switch {
	case resp.Err != "":
		dst = append(dst, " err="...)
		dst = strconv.AppendQuote(dst, resp.Err)
	case resp.Shed:
		dst = append(dst, " chip="...)
		dst = strconv.AppendInt(dst, int64(resp.Chip), 10)
		dst = append(dst, " shed=true"...)
	default:
		dst = append(dst, " chip="...)
		dst = strconv.AppendInt(dst, int64(resp.Chip), 10)
		dst = append(dst, " batch="...)
		dst = strconv.AppendUint(dst, resp.Batch, 10)
		dst = appendSizes(append(dst, " ou="...), resp.Sizes)
		dst = append(dst, " E="...)
		dst = strconv.AppendFloat(dst, resp.Energy, 'g', -1, 64)
		dst = append(dst, " L="...)
		dst = strconv.AppendFloat(dst, resp.Latency, 'g', -1, 64)
		dst = append(dst, " wait="...)
		dst = strconv.AppendFloat(dst, resp.Wait, 'g', -1, 64)
		if resp.Reprogrammed {
			dst = append(dst, " reprogram=true"...)
		}
	}
	return append(dst, '\n')
}
