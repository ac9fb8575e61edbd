package obs

import (
	"fmt"
	"io"
	"math"
	"sync"

	"odin/internal/ou"
)

// Candidate is one OU size a search evaluated for one layer decision, with
// the scores that drove the comparison: the analytical energy/latency/EDP
// (Eq. 1/2) and the effective non-ideality against the constraint η.
type Candidate struct {
	Size     ou.Size
	Energy   float64 // J (analytical layer energy at this size)
	Latency  float64 // s
	EDP      float64 // J·s; NaN when the candidate was infeasible (not scored)
	NF       float64 // effective non-ideality at the decision's device age
	Feasible bool
}

// LayerDecision is the audit record of one RunInference layer decision:
// what the policy predicted, where the feasibility clamp moved it, which
// search strategy refined it, every candidate the search scored, and who
// won (policy prediction == final choice, or the search overrode it). It
// always records a live search: an audited controller attaches no
// decision cache.
type LayerDecision struct {
	Layer     int
	Predicted ou.Size // policy output (Algorithm 1 line 5)
	Start     ou.Size // after the feasibility clamp (line 6 seed)
	Chosen    ou.Size // final decision

	// Strategy is "rb" (resource-bounded local walk), "ex" (exhaustive
	// grid scan) or "degraded" (no OU size satisfies η; smallest size used
	// and a reprogram scheduled).
	Strategy string

	Evaluations int  // candidate evaluations spent (comparator budget)
	PolicyWon   bool // Predicted == Chosen (no disagreement recorded)

	Candidates []Candidate

	// Front lists the non-dominated (energy, latency, NF) candidates when
	// a multi-objective strategy drove the decision (strategy "pareto"),
	// in grid order; nil for scalar strategies. Chosen is always EDP-tied
	// with a front member (the documented scalarization rule).
	Front []ou.Size
}

// RunAudit is the audit record of one full RunInference pass.
type RunAudit struct {
	Time float64 // simulation time of the run (s)
	Age  float64 // device age at the run (s)

	Layers []LayerDecision

	Reprogrammed bool // the run scheduled a reprogramming pass
}

// Evaluations sums the comparator budget spent across the run's layers.
func (r RunAudit) Evaluations() int {
	n := 0
	for _, l := range r.Layers {
		n += l.Evaluations
	}
	return n
}

// Disagreements counts layers where the search overrode the policy.
func (r RunAudit) Disagreements() int {
	n := 0
	for _, l := range r.Layers {
		if !l.PolicyWon && l.Strategy != "degraded" {
			n++
		}
	}
	return n
}

// AuditLog accumulates every RunAudit it is given. It is nil-safe: Add on
// a nil log is a no-op and Enabled reports false, so the controller hot
// path pays one pointer test when auditing is off.
type AuditLog struct {
	mu   sync.Mutex
	runs []RunAudit
}

// NewAuditLog returns an empty audit log.
func NewAuditLog() *AuditLog { return &AuditLog{} }

// Enabled reports whether the log records anything.
func (l *AuditLog) Enabled() bool { return l != nil }

// Add appends one run's audit.
func (l *AuditLog) Add(r RunAudit) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.runs = append(l.runs, r)
}

// Runs snapshots the recorded audits in record order.
func (l *AuditLog) Runs() []RunAudit {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RunAudit, len(l.runs))
	copy(out, l.runs)
	return out
}

// WriteTable renders the per-layer decision-audit attribution table: one
// section per recorded run, one row per layer with the chosen OU size, the
// policy prediction, the winner, the candidates evaluated and the best
// scores, followed by the run's totals. Deterministic bytes for a given
// log (runs are recorded by a single controller in run order).
func (l *AuditLog) WriteTable(w io.Writer) error {
	for i, run := range l.Runs() {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "run %d  t=%.6g s  age=%.6g s\n", i, run.Time, run.Age); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%5s %10s %10s %10s %8s %8s %6s %12s %12s %10s\n",
			"layer", "predicted", "start", "chosen", "winner", "strat", "evals",
			"energy(J)", "latency(s)", "nf"); err != nil {
			return err
		}
		for _, d := range run.Layers {
			best, ok := d.chosenCandidate()
			e, lat, nf := math.NaN(), math.NaN(), math.NaN()
			if ok {
				e, lat, nf = best.Energy, best.Latency, best.NF
			}
			winner := "search"
			if d.PolicyWon {
				winner = "policy"
			}
			if d.Strategy == "degraded" {
				winner = "-"
			}
			frontNote := ""
			if len(d.Front) > 0 {
				frontNote = fmt.Sprintf("  front=%d", len(d.Front))
			}
			if _, err := fmt.Fprintf(w, "%5d %10s %10s %10s %8s %8s %6d %12.4e %12.4e %10.4e%s\n",
				d.Layer, d.Predicted, d.Start, d.Chosen, winner, d.Strategy,
				d.Evaluations, e, lat, nf, frontNote); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "totals: evaluations=%d disagreements=%d reprogram=%t\n",
			run.Evaluations(), run.Disagreements(), run.Reprogrammed); err != nil {
			return err
		}
	}
	return nil
}

// chosenCandidate finds the decision's chosen size among its scored
// candidates (the last evaluation of that size wins — RB can revisit).
func (d LayerDecision) chosenCandidate() (Candidate, bool) {
	var out Candidate
	found := false
	for _, c := range d.Candidates {
		if c.Size == d.Chosen {
			out, found = c, true
		}
	}
	return out, found
}
