package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// metrics this program reports in step.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not one of the program's (%s)", w.Name, strings.Join(workloadNames(), ", "))
		}
	}
	check := func(kind string, got []entry, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program declares %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestFinishZeroesOnlyLayersNotRun checks that a traced run may leave out
// only the metrics of layers its workload does not run.
func TestFinishZeroesOnlyLayersNotRun(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	for name, w := range workloads {
		for _, n := range w.own {
			if !declared[n] {
				t.Errorf("%s: own metric %s is not a per-layer metric", name, n)
			}
		}
	}
	full := func() metrics {
		m := metrics{}
		for _, d := range perLayer {
			m.set(d.name, 1, d.unit)
		}
		return m
	}
	fig8 := workloads["sim-fig8"]
	m := full()
	for n := range fig8.notRun() {
		delete(m, n)
	}
	res, err := finish(m, perLayer, 1, 0, fig8.notRun())
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Metrics["serve.drain_s"].Value; v != 0 {
		t.Errorf("serve.drain_s on sim-fig8 = %v, want 0", v)
	}
	m = full()
	delete(m, "experiments.alloc_gb")
	if _, err := finish(m, perLayer, 1, 0, fig8.notRun()); err == nil {
		t.Error("sim-fig8 without experiments.alloc_gb passed")
	}
	m = full()
	delete(m, "cpu_share.mlp")
	if _, err := finish(m, perLayer, 1, 0, workloads["replay-fleet"].notRun()); err == nil {
		t.Error("replay-fleet without cpu_share.mlp passed")
	}
	if _, err := cpuShares(nil); err == nil {
		t.Error("cpuShares of no profile passed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 2, 5},
	}
	for _, c := range cases {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"odin/internal/mlp.(*Network).Train", "odin/internal/policy.(*Policy).Train"}, "mlp"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "odin/internal/mlp.New"}, "runtime_malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc"}, "runtime_gc"},
		{[]string{"net/http.(*conn).serve"}, "net_http"},
		{[]string{"math.Exp", "odin/internal/mlp.softmax"}, ""},
	}
	for _, c := range cases {
		if got := moduleOf(c.frames); got != c.want {
			t.Errorf("moduleOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

//go:noinline
func spin(until time.Time) int {
	n := 0
	for time.Now().Before(until) {
		n++
	}
	return n
}

// TestDecodeProfile reads back a real runtime/pprof CPU profile.
func TestDecodeProfile(t *testing.T) {
	prof, err := profiled(true, func() error {
		spin(time.Now().Add(300 * time.Millisecond))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stacks, err := decodeProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin float64
	for _, s := range stacks {
		total += s.value
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				inSpin += s.value
				break
			}
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Fatalf("profile of a 300ms spin: %.0f ns total, %.0f ns under spin", total, inSpin)
	}
}
