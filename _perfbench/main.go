// Command perfbench is the repository benchmark: it runs one named workload
// against the odin simulator and serving stack, checks the outputs, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// Usage (from the repository root; run.sh builds this module first):
//
//	bash _perfbench/run.sh --workload sim-fig8 --seed 1 --seconds 25 --trace 0
//	bash _perfbench/run.sh steady -workload replay-fleet -runs 5 -out a.jsonl
//	bash _perfbench/run.sh compare a.jsonl b.jsonl
//
// With --trace 0 the end-to-end metrics are printed; with --trace 1 the
// per-layer metrics, measured from outside the program: timed calls into
// each package's exported functions, its public counters, and a CPU
// profile, which a traced run also writes to .bench_build/WORKLOAD-cpu.pprof
// for go tool pprof. LAYERS.md maps each metric to the end-to-end metric it should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "steady":
			return runSteady(args[1:])
		case "compare":
			return runCompare(args[1:])
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	seed := fs.Uint64("seed", 1, "workload seed (the program only sees inputs generated from it)")
	seconds := fs.Float64("seconds", 30, "how long the run measures")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	runIndex := fs.Int("run-index", 0, "index of this run in a series (provenance stamp only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	e := &env{seed: *seed, seconds: *seconds, binDir: envOr("PERFBENCH_BIN", ".bench_build"), name: *name}
	st := stamp{
		Workload: *name, Seed: *seed, Run: *runIndex, Trace: *trace, Seconds: *seconds,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: envOr("PERFBENCH_COMMIT", "unknown"),
	}
	res, err := measure(e, w, *trace == 1)
	if err != nil {
		return err
	}
	return report(os.Stdout, st, res)
}

// envOr reads the settings run.sh passes: PERFBENCH_BIN, the directory
// holding the built odinserve, and PERFBENCH_COMMIT, the source commit.
func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// stamp is the provenance of one result: where and how it was measured.
// It is printed on its own line before the result line, and steady mode
// stores it next to each result.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Run        int     `json:"run"`
	Trace      int     `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// stampPrefix starts the provenance line, so steady mode can find it.
const stampPrefix = "perfbench-stamp "

// report prints the stamp, a readable metric table, and the result line.
func report(out *os.File, st stamp, res result) error {
	b, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s%s\n", stampPrefix, b)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-32s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
