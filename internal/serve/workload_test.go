package serve

import (
	"bytes"
	"runtime"
	"testing"

	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/telemetry"
)

// chipWorkload returns the workload chip id runs. Chip state is
// dispatcher-owned, so call it before Start or after Close.
func chipWorkload(s *Server, id int) *core.Workload { return s.chips[id].ctrl.Workload() }

// atProcs runs fn with GOMAXPROCS set to procs and restores it. GOMAXPROCS
// is process-wide, so tests that call it do not run in parallel.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestChipsOfOneModelShareWorkload pins that NewServer prepares each
// distinct model once: chips of one zoo model, and chips given one custom
// model, run the same workload, while different models never share one.
func TestChipsOfOneModelShareWorkload(t *testing.T) {
	t.Parallel()
	shared := tinyModel("shared")
	s, err := NewServer(Config{Clock: clock.NewVirtual(0), Chips: []ChipConfig{
		{Model: "VGG11"}, {Model: "ResNet18"}, {Custom: shared},
		{Model: "VGG11"}, {Model: "ResNet18"}, {Custom: shared},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for id := 3; id < 6; id++ {
		if chipWorkload(s, id) != chipWorkload(s, id-3) {
			t.Errorf("chips %d and %d host %s but run different workloads", id-3, id, s.chips[id].model)
		}
	}
	if a, b, c := chipWorkload(s, 0), chipWorkload(s, 1), chipWorkload(s, 2); a == b || a == c || b == c {
		t.Error("chips of different models share a workload")
	}
	if got := chipWorkload(s, 2).Model; got != shared {
		t.Errorf("custom chip runs model %p, want the configured %p", got, shared)
	}
	if len(s.workloads) != 3 {
		t.Errorf("%d models prepared for a fleet of 3 distinct models", len(s.workloads))
	}
}

// TestHotAddReusesWorkload pins that a hot add of a model the fleet has
// prepared reuses its workload, also after the model's last host left,
// and that a new model is prepared once, on its first hot add.
func TestHotAddReusesWorkload(t *testing.T) {
	t.Parallel()
	s, err := NewServer(Config{Clock: clock.NewVirtual(0), Chips: []ChipConfig{{Model: "VGG11"}, {Model: "VGG11"}}})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	add := func(cc ChipConfig) int {
		t.Helper()
		id, err := s.AddChip(cc)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	hosted := add(ChipConfig{Model: "VGG11"})
	fresh := add(ChipConfig{Model: "ResNet18"})
	again := add(ChipConfig{Model: "ResNet18"})
	for _, id := range []int{0, 1, hosted} {
		if err := s.RemoveChip(id); err != nil {
			t.Fatal(err)
		}
	}
	returned := add(ChipConfig{Model: "VGG11"})
	s.Close()

	vgg := chipWorkload(s, 0)
	if chipWorkload(s, hosted) != vgg {
		t.Error("hot add of a hosted model prepared it again")
	}
	if chipWorkload(s, returned) != vgg {
		t.Error("hot add of a model whose hosts all left prepared it again")
	}
	if chipWorkload(s, fresh) == vgg || chipWorkload(s, again) != chipWorkload(s, fresh) {
		t.Error("a model new to the fleet is not prepared exactly once")
	}
	if len(s.workloads) != 2 {
		t.Errorf("%d models prepared, want 2", len(s.workloads))
	}
}

// TestCustomModelNamedLikeZooModel pins that custom models are keyed by
// identity, not by name: a custom model named "VGG11" runs its own
// workload beside the zoo's VGG11, at construction and on a hot add.
func TestCustomModelNamedLikeZooModel(t *testing.T) {
	t.Parallel()
	custom := tinyModel("VGG11")
	s, err := NewServer(Config{Clock: clock.NewVirtual(0), Chips: []ChipConfig{
		{Model: "VGG11"}, {Custom: custom},
	}})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	other, err := s.AddChip(ChipConfig{Custom: tinyModel("VGG11")})
	if err != nil {
		t.Fatal(err)
	}
	zoo, err := s.AddChip(ChipConfig{Model: "VGG11"})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	if chipWorkload(s, 0) == chipWorkload(s, 1) {
		t.Fatal("a custom model named VGG11 runs the zoo VGG11's workload")
	}
	if got, want := chipWorkload(s, 1).Layers(), len(custom.Layers); got != want {
		t.Errorf("custom chip runs %d layers, want the custom model's %d", got, want)
	}
	if chipWorkload(s, other) == chipWorkload(s, 1) {
		t.Error("two distinct custom models of one name share a workload")
	}
	if chipWorkload(s, zoo) != chipWorkload(s, 0) {
		t.Error("hot add of the zoo VGG11 did not reuse its workload")
	}
}

// TestNewServerErrorParity pins that building chips in parallel fails with
// the error the sequential loop stops on, the lowest-index failing chip's,
// at every GOMAXPROCS: whether that chip fails resolving its model or
// building its controller, and whatever fails after it.
func TestNewServerErrorParity(t *testing.T) {
	_, unknown := dnn.ByName("NoSuchNet")
	if unknown == nil {
		t.Fatal("NoSuchNet resolved")
	}
	badStrategy := core.ControllerOptions{Strategy: "no-such-strategy"}
	cases := []struct {
		name  string
		chips []ChipConfig
		opts  core.ControllerOptions
		want  string
	}{
		{
			name:  "no model before unknown model",
			chips: []ChipConfig{{}, {Model: "NoSuchNet"}, {Model: "VGG11"}},
			want:  "serve: chip 0 names no model",
		},
		{
			name:  "unknown model after good chips",
			chips: []ChipConfig{{Model: "VGG11"}, {Model: "VGG11"}, {Model: "NoSuchNet"}, {}},
			want:  "serve: chip 2: " + unknown.Error(),
		},
		{
			name:  "controller failure before unknown model",
			chips: []ChipConfig{{Custom: tinyModel("tiny")}, {Model: "NoSuchNet"}},
			opts:  badStrategy,
		},
	}
	// The third case's chip 0 passes resolution and fails in NewController;
	// its text is whatever a one-chip fleet reports.
	one, err := NewServer(Config{Clock: clock.NewVirtual(0), Controller: badStrategy,
		Chips: []ChipConfig{{Custom: tinyModel("tiny")}}})
	if err == nil || one != nil {
		t.Fatal("an unknown strategy built a fleet")
	}
	cases[2].want = err.Error()
	for _, tc := range cases {
		for _, procs := range []int{1, 4} {
			atProcs(procs, func() {
				s, err := NewServer(Config{Clock: clock.NewVirtual(0), Chips: tc.chips, Controller: tc.opts})
				if s != nil || err == nil || err.Error() != tc.want {
					t.Errorf("%s at GOMAXPROCS %d: got (%v, %v), want error %q", tc.name, procs, s != nil, err, tc.want)
				}
			})
		}
	}
}

// TestFleetBuildIndependentOfGOMAXPROCS builds the replay-fleet shape at
// GOMAXPROCS 1, where NewServer builds chips one by one, and at 4, where
// it builds them in parallel, and replays one churned trace through each:
// the decision-log checksum and the /metrics exposition must be the same
// bytes.
func TestFleetBuildIndependentOfGOMAXPROCS(t *testing.T) {
	const chips, n = 64, 2048
	var sums [2]uint64
	var expos [2][]byte
	for k, procs := range []int{1, 4} {
		atProcs(procs, func() {
			cfg, clk, lat := fleetConfig(t, chips)
			cfg.Registry = telemetry.NewRegistry()
			s, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := GenTrace(TraceConfig{
				Seed: 2, Rate: 4 * float64(chips) / lat, Requests: n,
				Models: fleetModels, Tenants: []string{"bulk", "gold"},
			})
			if err != nil {
				t.Fatal(err)
			}
			ops := []FleetOp{
				{After: n / 4, Remove: 3},
				{After: n / 4, Add: &ChipConfig{Model: "VGG11", Seed: chips + 1}},
				{After: n / 2, Add: &ChipConfig{Model: "ResNet18", Seed: chips + 2}},
			}
			s.Start()
			sums[k] = ReplayOps(s, clk, tr, ops).Checksum
			var buf bytes.Buffer
			if err := cfg.Registry.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			expos[k] = buf.Bytes()
		})
	}
	if sums[0] != sums[1] {
		t.Errorf("decision-log checksum %#016x at GOMAXPROCS 1, %#016x at 4", sums[0], sums[1])
	}
	if !bytes.Equal(expos[0], expos[1]) {
		t.Errorf("/metrics differs between fleets built at GOMAXPROCS 1 and 4:\n%s\n---\n%s", expos[0], expos[1])
	}
}
