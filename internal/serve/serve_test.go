package serve

import (
	"math"
	"strings"
	"testing"
	"time"

	"odin/internal/clock"
	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/policy"
)

// tinyModel is a 3-layer conv stack small enough that one decision pass
// costs microseconds; serving behavior, not workload scale, is under test.
func tinyModel(name string) *dnn.Model {
	return &dnn.Model{
		Name:          name,
		Dataset:       dnn.Dataset{Name: "toy", InputH: 8, InputW: 8, Channels: 3, Classes: 10},
		IdealAccuracy: 0.9,
		Layers: []dnn.Layer{
			{Name: "c1", Type: dnn.Conv, KernelH: 3, KernelW: 3, InChannels: 3, OutChannels: 8, InH: 8, InW: 8, Stride: 1},
			{Name: "c2", Type: dnn.Conv, KernelH: 3, KernelW: 3, InChannels: 8, OutChannels: 8, InH: 8, InW: 8, Stride: 1},
			{Name: "c3", Type: dnn.Conv, KernelH: 3, KernelW: 3, InChannels: 8, OutChannels: 4, InH: 8, InW: 8, Stride: 1},
		},
	}
}

// tinyServer builds a started fleet of n tiny-model chips on a virtual
// clock.
func tinyServer(t testing.TB, n int, cfg Config) (*Server, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual(0)
	cfg.Clock = clk
	for i := 0; i < n; i++ {
		cfg.Chips = append(cfg.Chips, ChipConfig{Custom: tinyModel("tiny")})
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	return s, clk
}

// TestAdmissionControl drives arrivals that all land at t=0 on one chip:
// the first dispatches immediately (the chip is idle), the next QueueDepth
// fill the queue, and everything beyond sheds — newest arrivals first
// rejected (tail drop). The table pins the exact shed set.
func TestAdmissionControl(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name       string
		queueDepth int
		submit     int
		wantShed   []uint64 // request ids expected to shed
	}{
		{"fill-to-capacity-exact", 2, 3, nil},
		{"one-over", 2, 4, []uint64{3}},
		{"tail-drop-ordering", 2, 6, []uint64{3, 4, 5}},
		{"depth-one", 1, 4, []uint64{2, 3}},
		{"no-overflow-single", 4, 1, nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, _ := tinyServer(t, 1, Config{QueueDepth: tc.queueDepth, MaxBatch: 64})
			var chans []<-chan Response
			for i := 0; i < tc.submit; i++ {
				chans = append(chans, s.Submit("tiny"))
			}
			s.Close()
			var shed []uint64
			for i, ch := range chans {
				r := <-ch
				if r.ID != uint64(i) {
					t.Errorf("request %d answered with id %d", i, r.ID)
				}
				if r.Shed {
					shed = append(shed, r.ID)
				} else if r.Err != "" {
					t.Errorf("request %d unexpected error %q", i, r.Err)
				}
			}
			if len(shed) != len(tc.wantShed) {
				t.Fatalf("shed ids %v, want %v", shed, tc.wantShed)
			}
			for i := range shed {
				if shed[i] != tc.wantShed[i] {
					t.Fatalf("shed ids %v, want %v", shed, tc.wantShed)
				}
			}
		})
	}
}

// TestBatchCoalescing checks that requests queued behind a busy chip ride
// one coalesced decision pass: with all arrivals at t=0, request 0 runs
// alone and requests 1..Q share the second batch (same batch id, same OU
// sizes, same per-request energy).
func TestBatchCoalescing(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{QueueDepth: 4, MaxBatch: 8})
	var chans []<-chan Response
	for i := 0; i < 5; i++ {
		chans = append(chans, s.Submit("tiny"))
	}
	s.Close()
	first := <-chans[0]
	if first.Shed || first.Batch != 0 {
		t.Fatalf("request 0 = %+v, want batch 0", first)
	}
	var rest []Response
	for _, ch := range chans[1:] {
		rest = append(rest, <-ch)
	}
	for i, r := range rest {
		if r.Shed || r.Err != "" {
			t.Fatalf("request %d not served: %+v", i+1, r)
		}
		if r.Batch != 1 {
			t.Errorf("request %d rode batch %d, want coalesced batch 1", i+1, r.Batch)
		}
		// Batch-mates share one decision pass, so their energies must be
		// bit-identical, not merely close.
		if math.Float64bits(r.Energy) != math.Float64bits(rest[0].Energy) {
			t.Errorf("request %d energy %g differs from batch-mate %g", i+1, r.Energy, rest[0].Energy)
		}
	}
}

// TestRoundRobinRouting spreads same-model traffic across two chips in
// config order.
func TestRoundRobinRouting(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 2, Config{QueueDepth: 8})
	var chans []<-chan Response
	for i := 0; i < 6; i++ {
		chans = append(chans, s.Submit("tiny"))
	}
	s.Close()
	for i, ch := range chans {
		r := <-ch
		if r.Shed || r.Err != "" {
			t.Fatalf("request %d not served: %+v", i, r)
		}
		if want := i % 2; r.Chip != want {
			t.Errorf("request %d served by chip %d, want %d", i, r.Chip, want)
		}
	}
}

// TestDrainDeliversEveryAdmittedRequestExactlyOnce floods a small fleet,
// closes mid-stream, and requires one response per submission: admitted
// requests complete with decisions, shed ones carry the rejection, and
// nothing is dropped or duplicated (the buffered channel would panic a
// second send... a missing one would hang the receive).
func TestDrainDeliversEveryAdmittedRequestExactlyOnce(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 3, Config{QueueDepth: 2, MaxBatch: 4})
	const n = 40
	var chans []<-chan Response
	for i := 0; i < n; i++ {
		chans = append(chans, s.Submit("tiny"))
	}
	s.Close()
	served, shed := 0, 0
	for i, ch := range chans {
		r := <-ch
		switch {
		case r.Err != "":
			t.Fatalf("request %d errored: %q", i, r.Err)
		case r.Shed:
			shed++
		default:
			served++
			if len(r.Sizes) != 3 {
				t.Errorf("request %d served without per-layer decisions: %+v", i, r)
			}
			if !(r.Latency > 0) || !(r.Energy > 0) {
				t.Errorf("request %d has non-positive costs: %+v", i, r)
			}
		}
		// Exactly-once: a second receive must find the channel empty.
		select {
		case extra := <-ch:
			t.Fatalf("request %d received a second response: %+v", i, extra)
		default:
		}
	}
	if served+shed != n {
		t.Fatalf("served %d + shed %d != %d submitted", served, shed, n)
	}
	if served == 0 {
		t.Fatal("drain served nothing")
	}
}

// TestLiveDrainCompletes regression-tests Live-mode shutdown. Workers hint
// completions on the wake channel, which the dispatcher stops reading once
// drain begins; batches retired through the arrival path leave stale wakes
// behind. Without per-chip wake dedup those stale wakes fill the channel, a
// worker blocks sending its hint, and Close deadlocks with queued batches
// at flush (most easily with one chip and one worker). Close must return
// and every admitted request must hold its response.
func TestLiveDrainCompletes(t *testing.T) {
	t.Parallel()
	for round := 0; round < 10; round++ {
		s, _ := tinyServer(t, 1, Config{QueueDepth: 64, MaxBatch: 2, Workers: 1, Live: true})
		var chans []<-chan Response
		for i := 0; i < 32; i++ {
			chans = append(chans, s.Submit("tiny"))
		}
		closed := make(chan struct{})
		go func() { s.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Fatal("Close deadlocked draining a Live-mode fleet")
		}
		for i, ch := range chans {
			select {
			case r := <-ch:
				if r.Err != "" {
					t.Fatalf("round %d request %d errored: %q", round, i, r.Err)
				}
			default:
				t.Fatalf("round %d request %d has no response after drain", round, i)
			}
		}
	}
}

// TestLiveIdleChipStartsAheadOfClock regression-tests a Live-mode stall. A
// decision pass can take less wall time than its batch's modelled latency,
// so a client's next request can reach an idle chip with a clock reading
// before the chip's virtual free time. The dispatcher must still start the
// batch, at that free time: no batch is in flight to wake the chip later.
// Holding the virtual clock at 0 makes that ordering certain.
func TestLiveIdleChipStartsAheadOfClock(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{Live: true})
	defer s.Close()
	first := <-s.Submit("tiny")
	if first.Err != "" || first.Shed || !(first.Latency > 0) {
		t.Fatalf("first request answered %+v, want a served batch with positive latency", first)
	}
	select {
	case r := <-s.Submit("tiny"):
		if r.Err != "" || r.Shed || !(r.Wait > 0) {
			t.Fatalf("second request answered %+v, want it served after waiting for the chip", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a request on an idle chip whose free time lies past the clock was never started")
	}
}

func TestUnknownModelErrors(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{})
	ch := s.Submit("no-such-model")
	s.Close()
	r := <-ch
	if r.Err == "" || r.Shed {
		t.Fatalf("unknown model answered %+v, want routing error", r)
	}
}

func TestSubmitAfterCloseRejects(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{})
	s.Close()
	r := <-s.Submit("tiny")
	if r.Err == "" {
		t.Fatalf("post-close submit answered %+v, want draining error", r)
	}
}

func TestTelemetryCountsConsistent(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 1, Config{QueueDepth: 2, MaxBatch: 8})
	var chans []<-chan Response
	for i := 0; i < 10; i++ {
		chans = append(chans, s.Submit("tiny"))
	}
	s.Close()
	for _, ch := range chans {
		<-ch
	}
	var sb strings.Builder
	if err := s.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"odinserve_requests_total 10",
		"odinserve_admitted_total 3", // 1 dispatched immediately + 2 queued
		"odinserve_shed_total 7",
		`odinserve_chip_batches_total{chip="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestChipStatsAndBudget exercises Stats and the reprogram-budget plumbing
// on a drained fleet.
func TestChipStatsAndBudget(t *testing.T) {
	t.Parallel()
	s, _ := tinyServer(t, 2, Config{QueueDepth: 8, ReprogramBudget: 1})
	var chans []<-chan Response
	for i := 0; i < 8; i++ {
		chans = append(chans, s.Submit("tiny"))
	}
	s.Close()
	for _, ch := range chans {
		<-ch
	}
	stats := s.Stats()
	if len(stats) != 2 {
		t.Fatalf("got %d chip stats, want 2", len(stats))
	}
	var total uint64
	for _, st := range stats {
		total += st.Served
		if st.Model != "tiny" {
			t.Errorf("chip %d model %q", st.ID, st.Model)
		}
		if st.Served > 0 && !(st.Energy > 0) {
			t.Errorf("chip %d served %d requests with zero energy", st.ID, st.Served)
		}
	}
	if total != 8 {
		t.Fatalf("fleet served %d, want 8", total)
	}
}

// probeLatency measures the tiny model's per-inference service latency on a
// fresh controller, for calibrating trace rates against service capacity.
func probeLatency(t testing.TB) float64 {
	t.Helper()
	sys := core.DefaultSystem()
	wl, err := sys.Prepare(tinyModel("probe"))
	if err != nil {
		t.Fatal(err)
	}
	pol := policy.New(policy.Config{Grid: sys.Grid(), Seed: 1})
	ctrl, err := core.NewController(sys, wl, pol, core.ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl.RunInference(0).Latency
}
