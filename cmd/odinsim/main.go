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
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"odin/internal/clock"
	"odin/internal/core"
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

	// cacheOff disables the controller decision cache process-wide
	// (-cache=off), for byte-for-byte cached-vs-uncached comparisons.
	cacheOff bool
}

// parseArgs scans args for flags wherever they appear and returns the
// remaining positional arguments in order. This is the regression fix for
// "odinsim all -json": the old parser only honoured -json as the first
// argument and treated it as an experiment id anywhere else.
func parseArgs(args []string) (cliOptions, []string, error) {
	opts := cliOptions{out: "trace.json"}
	var pos []string
	for i := 0; i < len(args); i++ {
		arg := args[i]
		name, val, hasVal := strings.Cut(arg, "=")
		takesValue := func(flag string) (string, error) {
			if hasVal {
				return val, nil
			}
			if i+1 >= len(args) {
				return "", fmt.Errorf("flag %s needs a value", flag)
			}
			i++
			return args[i], nil
		}
		switch name {
		case "-json", "--json":
			opts.json = true
		case "-metrics", "--metrics":
			opts.metrics = true
		case "-workers", "--workers":
			v, err := takesValue(name)
			if err != nil {
				return opts, nil, err
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return opts, nil, fmt.Errorf("flag %s needs a positive integer, got %q", name, v)
			}
			opts.workers = n
		case "-out", "--out":
			v, err := takesValue(name)
			if err != nil {
				return opts, nil, err
			}
			opts.out = v
		case "-model", "--model":
			v, err := takesValue(name)
			if err != nil {
				return opts, nil, err
			}
			opts.model = v
		case "-runs", "--runs":
			v, err := takesValue(name)
			if err != nil {
				return opts, nil, err
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return opts, nil, fmt.Errorf("flag %s needs a positive integer, got %q", name, v)
			}
			opts.runs = n
		case "-horizon", "--horizon":
			v, err := takesValue(name)
			if err != nil {
				return opts, nil, err
			}
			h, err := strconv.ParseFloat(v, 64)
			if err != nil || !(h > 0) {
				return opts, nil, fmt.Errorf("flag %s needs a positive duration in seconds, got %q", name, v)
			}
			opts.horizon = h
		case "-cache", "--cache":
			v, err := takesValue(name)
			if err != nil {
				return opts, nil, err
			}
			switch v {
			case "on":
				opts.cacheOff = false
			case "off":
				opts.cacheOff = true
			default:
				return opts, nil, fmt.Errorf("flag %s needs on or off, got %q", name, v)
			}
		case "-h", "-help", "--help":
			opts.help = true
		default:
			if strings.HasPrefix(arg, "-") {
				return opts, nil, fmt.Errorf("unknown flag %s (try -h)", arg)
			}
			pos = append(pos, arg)
		}
	}
	return opts, pos, nil
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
	// The decision cache is deterministic by contract (artefacts are
	// byte-identical either way); the switch exists so that contract can be
	// checked from the command line (`make smoke` diffs the two).
	core.SetDecisionCacheDefault(!opts.cacheOff)
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
	if opts.json {
		return experiments.RunAllJSON(stdout, experiments.RunOptions{Workers: opts.workers, IDs: ids})
	}
	var reg *telemetry.Registry
	if opts.metrics {
		reg = telemetry.NewRegistry()
	}
	_, err = experiments.RunAll(stdout, experiments.RunOptions{
		Workers:  opts.workers,
		IDs:      ids,
		Clock:    clk,
		Registry: reg,
	})
	if err != nil {
		return err
	}
	if reg != nil {
		if werr := reg.WritePrometheus(stderr); werr != nil {
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
