// Command odinsim regenerates the paper's evaluation artefacts.
//
// Usage:
//
//	odinsim list                  # list experiment ids
//	odinsim all                   # run every experiment
//	odinsim -workers 8 all        # same, on an 8-worker pool (same bytes)
//	odinsim fig3 fig8 overhead    # run specific experiments
//	odinsim all -json             # machine-readable, keys in paper order
//	odinsim trace -model resnet18 # traced ageing sweep: decision audit + spans -> trace.json
//
// Flags (-json, -workers N, -metrics, -cache on|off, and trace's -model
// NAME, -runs N, -horizon S, -out FILE) are recognised in any argument
// position. Each experiment prints the rows/series of the corresponding
// table or figure of "Odin: Learning to Optimize Operation Unit
// Configuration for Energy-efficient DNN Inferencing" (DATE 2025).
// Artefact output is deterministic and independent of the worker count;
// only the "done in" progress timings vary run to run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"odin/internal/clock"
	"odin/internal/experiments"
	"odin/internal/telemetry"
)

func main() {
	if err := run(os.Stdout, os.Stderr, os.Args[1:], clock.NewReal()); err != nil {
		fmt.Fprintln(os.Stderr, "odinsim:", err)
		os.Exit(1)
	}
}

// cliOptions are the flags accepted in any argument position.
type cliOptions struct {
	json    bool
	metrics bool
	workers int    // 0 = GOMAXPROCS
	out     string // chrome trace path (trace subcommand)
	help    bool

	// trace subcommand knobs
	model   string
	runs    int     // 0 = default
	horizon float64 // 0 = default

	// cacheOff turns the controllers' decision cache off (-cache off), for
	// byte-for-byte cached-vs-uncached comparisons.
	cacheOff bool
}

// parseArgs parses flags wherever they appear and returns the remaining
// positional arguments in order: flag.FlagSet stops at the first
// positional, so parsing resumes after each one. This is the regression
// fix for "odinsim all -json": the old parser only honoured -json as the
// first argument and treated it as an experiment id anywhere else.
func parseArgs(args []string) (cliOptions, []string, error) {
	var opts cliOptions
	fs := flag.NewFlagSet("odinsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // run prints the usage; errors are returned
	fs.BoolVar(&opts.json, "json", false, "")
	fs.BoolVar(&opts.metrics, "metrics", false, "")
	fs.IntVar(&opts.workers, "workers", 0, "")
	fs.StringVar(&opts.out, "out", "trace.json", "")
	fs.StringVar(&opts.model, "model", "", "")
	fs.IntVar(&opts.runs, "runs", 0, "")
	fs.Float64Var(&opts.horizon, "horizon", 0, "")
	cache := fs.String("cache", "on", "")
	var pos []string
	for {
		if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
			opts.help = true
			return opts, pos, nil
		} else if err != nil {
			return opts, nil, fmt.Errorf("%w (try -h)", err)
		}
		if fs.NArg() == 0 {
			break
		}
		pos = append(pos, fs.Arg(0))
		args = fs.Args()[1:]
	}
	var bad error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case f.Name == "workers" && opts.workers < 1, f.Name == "runs" && opts.runs < 1:
			bad = fmt.Errorf("flag -%s needs a positive integer, got %q", f.Name, f.Value)
		case f.Name == "horizon" && !(opts.horizon > 0):
			bad = fmt.Errorf("flag -horizon needs a positive duration in seconds, got %q", f.Value)
		}
	})
	switch *cache {
	case "on":
	case "off":
		opts.cacheOff = true
	default:
		bad = fmt.Errorf("flag -cache needs on or off, got %q", *cache)
	}
	return opts, pos, bad
}

func run(stdout, stderr io.Writer, args []string, clk clock.Clock) error {
	opts, pos, err := parseArgs(args)
	if err != nil {
		return err
	}
	if opts.help || (len(pos) == 1 && pos[0] == "help") {
		usage(stdout)
		return nil
	}
	if len(pos) == 0 {
		usage(stdout)
		return fmt.Errorf("no experiment selected")
	}
	switch pos[0] {
	case "list":
		if len(pos) > 1 {
			return fmt.Errorf("list takes no further arguments")
		}
		return runList(stdout, opts)
	case "trace":
		return runTrace(stdout, opts, pos[1:])
	}
	ids := pos
	if len(pos) == 1 && pos[0] == "all" {
		ids = nil // every experiment, paper order
	} else {
		for _, id := range ids {
			if id == "all" {
				return fmt.Errorf("'all' cannot be combined with explicit experiment ids")
			}
		}
	}
	// The decision cache is deterministic by contract (artefacts are
	// byte-identical either way); the switch exists so that contract can be
	// checked from the command line (`make smoke` diffs the two).
	ro := experiments.RunOptions{Workers: opts.workers, IDs: ids, Clock: clk,
		DisableDecisionCache: opts.cacheOff}
	if opts.json {
		return experiments.RunAllJSON(stdout, ro)
	}
	if opts.metrics {
		ro.Registry = telemetry.NewRegistry()
	}
	_, err = experiments.RunAll(stdout, ro)
	if err != nil {
		return err
	}
	if ro.Registry != nil {
		if werr := ro.Registry.WritePrometheus(stderr); werr != nil {
			return werr
		}
	}
	return nil
}

// runList prints the experiment ids, as a table or (with -json) as a JSON
// array in paper order. The old CLI fell through to ByID("list") when -json
// preceded list and died with "unknown experiment".
func runList(stdout io.Writer, opts cliOptions) error {
	if opts.json {
		type entry struct {
			ID    string `json:"id"`
			Title string `json:"title"`
		}
		var out []entry
		for _, e := range experiments.All() {
			out = append(out, entry{ID: e.ID, Title: e.Title})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	for _, e := range experiments.All() {
		fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
	}
	return nil
}

// runTrace executes one fully-observed ageing sweep (odinsim trace): it
// prints the per-layer decision-audit table and the flame summary, and
// writes the span tree as Chrome trace-event JSON (default trace.json).
func runTrace(stdout io.Writer, opts cliOptions, rest []string) error {
	if len(rest) > 0 {
		return fmt.Errorf("trace takes flags only (-model NAME [-runs N] [-horizon S] [-out FILE]), got %q", rest[0])
	}
	if opts.model == "" {
		return fmt.Errorf("trace needs -model NAME (e.g. odinsim trace -model resnet18)")
	}
	res, err := experiments.RunTrace(experiments.TraceOptions{
		Model: opts.model, Runs: opts.runs, Horizon: opts.horizon,
	})
	if err != nil {
		return err
	}
	if err := res.Render(stdout); err != nil {
		return err
	}
	f, err := os.Create(opts.out)
	if err != nil {
		return err
	}
	if err := res.Tracer.WriteChromeTrace(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "\nchrome trace: %d spans -> %s (load in chrome://tracing or Perfetto)\n",
		res.Tracer.Len(), opts.out)
	return err
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: odinsim [-json] [-workers N] [-metrics] [-cache on|off] list | all | trace -model NAME [-out FILE] | <experiment-id>...")
	fmt.Fprintln(w, "experiments:")
	for _, e := range experiments.All() {
		fmt.Fprintf(w, "  %-10s %s\n", e.ID, e.Title)
	}
}
