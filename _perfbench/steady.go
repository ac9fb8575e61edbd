package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// record is one stamped result, as steady mode stores it (one JSON object
// per line).
type record struct {
	Stamp  stamp  `json:"stamp"`
	Result result `json:"result"`
}

// runSteady runs one workload several times, each in a fresh process with
// its own seed, appends every stamped result to -out, and prints each
// metric's median, quartiles and spread (IQR over median).
func runSteady(args []string) error {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs")
	seed0 := fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.String("seconds", "30", "seconds per run")
	trace := fs.String("trace", "0", "trace flag passed to every run")
	outPath := fs.String("out", "", "append stamped results to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[*name]; !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var recs []record
	for i := 0; i < *runs; i++ {
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatUint(*seed0+uint64(i), 10),
			"--seconds", *seconds, "--trace", *trace, "--run-index", strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		rec, err := parseRunOutput(out)
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		recs = append(recs, rec)
		fmt.Fprintf(os.Stderr, "run %d seed %d: attempted=%d failed=%d\n", i, rec.Stamp.Seed, rec.Result.Attempted, rec.Result.Failed)
		if *outPath != "" {
			if err := appendRecord(*outPath, rec); err != nil {
				return err
			}
		}
	}
	printSummary(recs)
	return nil
}

// parseRunOutput extracts the stamp line and the final result line.
func parseRunOutput(out []byte) (record, error) {
	var rec record
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	for _, l := range lines {
		if s, ok := strings.CutPrefix(l, stampPrefix); ok {
			if err := json.Unmarshal([]byte(s), &rec.Stamp); err != nil {
				return rec, err
			}
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		return rec, fmt.Errorf("last line is not a result: %w", err)
	}
	return rec, nil
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// series groups records' metric values by workload and metric, in run
// order.
func series(recs []record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		w := out[r.Stamp.Workload]
		if w == nil {
			w = map[string][]float64{}
			out[r.Stamp.Workload] = w
		}
		for name, m := range r.Result.Metrics {
			w[name] = append(w[name], m.Value)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func printSummary(recs []record) {
	for wname, ms := range series(recs) {
		fmt.Printf("workload %s (%d runs)\n", wname, len(recs))
		fmt.Printf("  %-32s %14s %14s %14s %10s\n", "metric", "q1", "median", "q3", "iqr/med")
		for _, name := range sortedKeys(ms) {
			xs := ms[name]
			q1, q3 := quartiles(xs)
			fmt.Printf("  %-32s %14.6g %14.6g %14.6g %10.4f\n", name, q1, median(xs), q3, spread(xs))
		}
	}
}

// runCompare prints, per workload and metric, each side's median and
// quartiles and the share of run pairs the second side won (ties count
// for neither). Runs are paired in file order within a workload.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare BASE.jsonl CHANGE.jsonl")
	}
	base, err := readRecords(args[0])
	if err != nil {
		return err
	}
	change, err := readRecords(args[1])
	if err != nil {
		return err
	}
	better := map[string]string{}
	for _, d := range append(append([]decl{}, endToEnd...), perLayer...) {
		better[d.name] = d.better
	}
	bs, cs := series(base), series(change)
	for _, wname := range sortedKeys(bs) {
		fmt.Printf("workload %s\n", wname)
		fmt.Printf("  %-32s %-32s %-32s %8s\n", "metric", "base q1/median/q3", "change q1/median/q3", "won")
		for _, name := range sortedKeys(bs[wname]) {
			a, b := bs[wname][name], cs[wname][name]
			if len(b) == 0 {
				continue
			}
			won, pairs := 0, min(len(a), len(b))
			for i := 0; i < pairs; i++ {
				if (better[name] == "higher" && b[i] > a[i]) || (better[name] != "higher" && b[i] < a[i]) {
					won++
				}
			}
			fmt.Printf("  %-32s %-32s %-32s %3d/%-4d\n", name, triple(a), triple(b), won, pairs)
		}
	}
	return nil
}

func triple(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g/%.4g/%.4g", q1, median(xs), q3)
}
