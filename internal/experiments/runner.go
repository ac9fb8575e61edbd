package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/par"
	"odin/internal/telemetry"
)

// RunOptions configures the parallel experiment engine.
type RunOptions struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// IDs selects a subset of experiments and fixes the output order.
	// Empty means every experiment in paper order (All()).
	IDs []string
	// Clock is the timing source for the per-experiment progress lines
	// and the Report. nil means a virtual clock pinned at 0, so all
	// timings render as 0.000s (what the determinism tests inject).
	Clock clock.Clock
	// Registry, when non-nil, receives per-experiment wall time and the
	// engine's aggregate speedup as telemetry gauges.
	Registry *telemetry.Registry
	// DisableDecisionCache turns the decision cache off in every Odin
	// controller the experiments build (`odinsim -cache off`). Artefacts
	// are byte-identical either way; the switch lets that be checked.
	DisableDecisionCache bool
}

// base returns the controller options every driver starts from: the
// paper's controller (the zero value) with the run's cache switch.
func (o RunOptions) base() core.ControllerOptions {
	return core.ControllerOptions{DisableDecisionCache: o.DisableDecisionCache}
}

// Timing is one experiment's measured wall time.
type Timing struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

// Report summarises an engine run: per-experiment wall times in flush
// order, the engine's total wall time, and the pool size used.
type Report struct {
	Workers     int      `json:"workers"`
	Timings     []Timing `json:"timings"`
	WallSeconds float64  `json:"wall_seconds"`
}

// SumSeconds returns the total per-experiment compute time — what a
// sequential run would cost on an otherwise idle machine.
func (r Report) SumSeconds() float64 {
	var s float64
	for _, t := range r.Timings {
		s += t.Seconds
	}
	return s
}

// Speedup returns SumSeconds / WallSeconds (1.0 when wall time is zero,
// e.g. under a virtual clock).
func (r Report) Speedup() float64 {
	if r.WallSeconds <= 0 {
		return 1
	}
	return r.SumSeconds() / r.WallSeconds
}

// selectExperiments resolves ids (empty = all, paper order) preserving the
// requested order.
func selectExperiments(ids []string) ([]Experiment, error) {
	if len(ids) == 0 {
		return All(), nil
	}
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// runCell is one experiment's private output shard: the worker that runs
// experiment i writes only cells[i] and then closes done; the flusher reads
// the cell only after <-done, so the pool is race-clean by construction and
// the flushed byte stream is identical for every worker count.
type runCell struct {
	buf     bytes.Buffer
	err     error
	seconds float64
	done    chan struct{}
}

// RunAll executes the selected experiments on a bounded worker pool and
// writes their rendered output to w in selection order, byte-identical to
// the sequential loop: each experiment renders into its own buffer
// (progress header, artefact body, timing footer) and buffers are flushed
// strictly in order as they complete. A failing experiment renders
// nothing, so the flush stops after its progress header — again exactly
// the sequential byte stream — the pool is drained, and the failure is
// returned. All timing flows through opts.Clock; no wall clock is read
// here.
func RunAll(w io.Writer, opts RunOptions) (Report, error) {
	exps, err := selectExperiments(opts.IDs)
	if err != nil {
		return Report{}, err
	}
	return streamSelected(w, exps, opts)
}

// streamSelected is RunAll after id resolution; tests drive it directly
// with synthetic experiments to pin the engine's failure semantics.
func streamSelected(w io.Writer, exps []Experiment, opts RunOptions) (Report, error) {
	clk := opts.Clock
	if clk == nil {
		clk = clock.NewVirtual(0)
	}
	workers := par.Workers(opts.Workers)
	report := Report{Workers: workers}
	begin := clk.Now()

	cells := make([]runCell, len(exps))
	for i := range cells {
		cells[i].done = make(chan struct{})
	}
	poolDone := make(chan struct{})
	go func() {
		defer close(poolDone)
		par.Each(workers, len(exps), func(i int) {
			defer close(cells[i].done)
			c, e := &cells[i], exps[i]
			start := clk.Now()
			fmt.Fprintf(&c.buf, "==> %s (%s)\n", e.Title, e.ID)
			res, err := e.Run(opts.base())
			if err != nil {
				c.err = fmt.Errorf("%s: %w", e.ID, err)
				c.seconds = clk.Now() - start
				return
			}
			res.Render(&c.buf)
			c.seconds = clk.Now() - start
			fmt.Fprintf(&c.buf, "<== %s done in %.3fs\n\n", e.ID, c.seconds)
		})
	}()

	var failed error
	for i := range cells {
		<-cells[i].done
		if _, werr := w.Write(cells[i].buf.Bytes()); werr != nil && failed == nil {
			failed = werr
		}
		report.Timings = append(report.Timings, Timing{ID: exps[i].ID, Seconds: cells[i].seconds})
		if cells[i].err != nil {
			failed = cells[i].err
			break
		}
		if failed != nil {
			break
		}
	}
	<-poolDone
	report.WallSeconds = clk.Now() - begin
	if opts.Registry != nil {
		recordTelemetry(opts.Registry, report)
	}
	return report, failed
}

// recordTelemetry mirrors a Report into the registry: per-experiment wall
// time, engine wall time, pool size, and the aggregate speedup.
func recordTelemetry(reg *telemetry.Registry, r Report) {
	perExp := reg.GaugeVec("odinsim_experiment_seconds",
		"wall time of one experiment driver", "experiment")
	for _, t := range r.Timings {
		perExp.With(t.ID).Set(t.Seconds)
	}
	reg.Gauge("odinsim_wall_seconds", "wall time of the whole engine run").Set(r.WallSeconds)
	reg.Gauge("odinsim_workers", "worker-pool size of the engine run").Set(float64(r.Workers))
	reg.Gauge("odinsim_speedup", "sum of experiment times over engine wall time").Set(r.Speedup())
}

// RunAllJSON runs the selected experiments on the worker pool and writes
// their results as a single JSON object whose keys appear in selection
// order — NOT alphabetically. encoding/json sorts map keys, which would
// silently discard the paper ordering All() establishes, so the object is
// hand-assembled from per-experiment marshalled payloads. Output is
// byte-identical for every worker count, and nothing is written unless
// every experiment succeeds.
func RunAllJSON(w io.Writer, opts RunOptions) error {
	exps, err := selectExperiments(opts.IDs)
	if err != nil {
		return err
	}
	payloads := make([][]byte, len(exps))
	if err := par.ForEach(opts.Workers, len(exps), func(i int) error {
		res, err := exps[i].Run(opts.base())
		if err == nil {
			payloads[i], err = json.MarshalIndent(res, "  ", "  ")
		}
		if err != nil {
			return fmt.Errorf("%s: %w", exps[i].ID, err)
		}
		return nil
	}); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	for i, e := range exps {
		key, err := json.Marshal(e.ID)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(exps)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "  %s: %s%s", key, payloads[i], sep); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "}\n")
	return err
}
