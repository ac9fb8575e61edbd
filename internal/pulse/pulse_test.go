package pulse

import (
	"math"
	"strings"
	"testing"

	"odin/internal/telemetry"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind(bogus): want error")
	}
}

func TestParseKinds(t *testing.T) {
	all, err := ParseKinds("")
	if err != nil || all != AllKinds {
		t.Fatalf("ParseKinds(\"\") = %v, %v; want AllKinds", all, err)
	}
	ks, err := ParseKinds("batch, shed")
	if err != nil {
		t.Fatal(err)
	}
	if !ks.Has(KindBatch) || !ks.Has(KindShed) || ks.Has(KindDecision) {
		t.Fatalf("ParseKinds(batch,shed) = %b", ks)
	}
	if _, err := ParseKinds("batch,nope"); err == nil {
		t.Fatal("ParseKinds with unknown kind: want error")
	}
}

func TestAppendJSONCanonical(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{
			Event{Seq: 1, Time: 0.5, Kind: KindLifecycle, Chip: 3, Model: "VGG11",
				Action: "add", Fleet: 4},
			`{"seq":1,"t":0.5,"kind":"lifecycle","chip":3,"model":"VGG11","action":"add","fleet":4}`,
		},
		{
			Event{Seq: 2, Time: 1.25, Kind: KindBatch, Chip: 0, Model: "VGG11",
				Batch: 7, Size: 3, Queue: 2, Latency: 0.01, Energy: 1.5,
				Age: 0.75, Deadline: math.Inf(1), Reprogram: false},
			`{"seq":2,"t":1.25,"kind":"batch","chip":0,"model":"VGG11","batch":7,"size":3,"queue":2,"lat":0.01,"energy":1.5,"age":0.75,"deadline":"+Inf","reprogram":false}`,
		},
		{
			Event{Seq: 3, Time: 2, Kind: KindBatch, Chip: 1, Model: "AlexNet",
				Batch: 1, Size: 1, Latency: 0.25, Energy: 2, Age: 1, Deadline: 8,
				Reprogram: true, Tenant: "a,b"},
			`{"seq":3,"t":2,"kind":"batch","chip":1,"model":"AlexNet","batch":1,"size":1,"queue":0,"lat":0.25,"energy":2,"age":1,"deadline":8,"reprogram":true,"tenants":"a,b"}`,
		},
		{
			Event{Seq: 4, Time: 2, Kind: KindReprogram, Chip: 1, Model: "AlexNet",
				Pass: "forced", Count: 2, Age: 0},
			`{"seq":4,"t":2,"kind":"reprogram","chip":1,"model":"AlexNet","pass":"forced","count":2,"age":0}`,
		},
		{
			Event{Seq: 5, Time: 3, Kind: KindDecision, Chip: 0, Model: "VGG11",
				Layers: 2, Evaluations: 10, Disagreements: 1, Strategy: "exact",
				Sizes: "8x8,16x16", Age: 0.5, Reprogram: true},
			`{"seq":5,"t":3,"kind":"decision","chip":0,"model":"VGG11","layers":2,"evals":10,"disagree":1,"strategy":"exact","sizes":"8x8,16x16","age":0.5,"reprogram":true}`,
		},
		{
			Event{Seq: 6, Time: 4, Kind: KindShed, Chip: -1, Model: "VGG11",
				Request: 9, Reason: "quota", Tenant: "t0"},
			`{"seq":6,"t":4,"kind":"shed","chip":-1,"model":"VGG11","request":9,"reason":"quota","tenant":"t0"}`,
		},
		{
			// Rejections carry no request id: they precede dispatch.
			Event{Seq: 7, Time: 5, Kind: KindShed, Chip: -1, Model: "VGG11",
				Request: 99, Reason: "reject"},
			`{"seq":7,"t":5,"kind":"shed","chip":-1,"model":"VGG11","request":null,"reason":"reject"}`,
		},
		{
			Event{Seq: 8, Time: math.Inf(-1), Kind: KindReprogram, Chip: 0, Model: "m",
				Pass: "maintenance", Count: 1, Age: math.NaN()},
			`{"seq":8,"t":"-Inf","kind":"reprogram","chip":0,"model":"m","pass":"maintenance","count":1,"age":"NaN"}`,
		},
	}
	for _, tc := range cases {
		got := string(tc.e.AppendJSON(nil))
		if got != tc.want {
			t.Errorf("AppendJSON %v:\n got  %s\n want %s", tc.e.Kind, got, tc.want)
		}
	}
}

// TestAppendJSONAllocFree: rendering a batch event, a non-finite deadline
// included, into a buffer with room allocates nothing.
func TestAppendJSONAllocFree(t *testing.T) {
	e := Event{Seq: 2, Time: 1.25, Kind: KindBatch, Chip: 0, Model: "VGG11",
		Batch: 7, Size: 3, Queue: 2, Latency: 0.01, Energy: 1.5,
		Age: 0.75, Deadline: math.Inf(1), Tenant: "gold"}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { buf = e.AppendJSON(buf[:0]) }); n != 0 {
		t.Fatalf("AppendJSON of a batch event: %v allocations, want 0", n)
	}
}

func TestAppendSSEFrame(t *testing.T) {
	e := Event{Seq: 42, Time: 1, Kind: KindShed, Chip: -1, Model: "m", Reason: "queue"}
	frame := string(e.AppendSSE(nil))
	if !strings.HasPrefix(frame, "id: 42\nevent: shed\ndata: {") {
		t.Fatalf("SSE frame prefix wrong:\n%s", frame)
	}
	if !strings.HasSuffix(frame, "}\n\n") {
		t.Fatalf("SSE frame must end with blank line:\n%q", frame)
	}
}

func TestNilBusNoOp(t *testing.T) {
	var b *Bus
	if b.Enabled() {
		t.Fatal("nil bus reports Enabled")
	}
	b.Register(0, "m")
	b.Publish(Event{Kind: KindBatch})
	if got := b.Since(0); got != nil {
		t.Fatalf("nil Since = %v", got)
	}
	if b.LastSeq() != 0 {
		t.Fatal("nil LastSeq != 0")
	}
	if err := b.WriteLog(nil); err != nil {
		t.Fatalf("nil WriteLog: %v", err)
	}
	if st := b.Snapshot(); len(st.Chips) != 0 || st.Seq != 0 {
		t.Fatalf("nil Snapshot = %+v", st)
	}
}

func TestRingEvictionAndSince(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := New(Options{Ring: 4, Registry: reg})
	for i := 1; i <= 6; i++ {
		b.Publish(Event{Time: float64(i), Kind: KindBatch, Chip: 0, Model: "m", Batch: uint64(i)})
	}
	got := b.Since(0)
	if len(got) != 4 {
		t.Fatalf("Since(0) after eviction: %d events, want 4", len(got))
	}
	if got[0].Seq != 3 || got[3].Seq != 6 {
		t.Fatalf("Since(0) seq range = [%d,%d], want [3,6]", got[0].Seq, got[3].Seq)
	}
	if got := b.Since(5); len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("Since(5) = %v", got)
	}
	if b.LastSeq() != 6 {
		t.Fatalf("LastSeq = %d, want 6", b.LastSeq())
	}
	if v := reg.Counter("odin_pulse_ring_evicted_total", "").Value(); v != 2 {
		t.Fatalf("evicted counter = %d, want 2", v)
	}
}

// TestSinceFilter: Since filters by sequence number alone. At every cut
// point, on an unbounded ring and on bounded rings that have wrapped (head
// mid-ring and head back at 0), it returns exactly the retained events
// after the cut, in publish order, whatever their kind; kind filtering is
// the GET /events handler's.
func TestSinceFilter(t *testing.T) {
	for _, tc := range []struct{ ring, publish int }{
		{0, 5}, {4, 3}, {4, 4}, {4, 6}, {4, 8}, {4, 11},
	} {
		b := New(Options{Ring: tc.ring})
		var retained []Event
		for i := 1; i <= tc.publish; i++ {
			e := Event{Time: float64(i), Kind: KindBatch, Chip: 0, Model: "m", Batch: uint64(i)}
			if i%3 == 2 {
				e = Event{Time: float64(i), Kind: KindShed, Chip: -1, Model: "m", Reason: "queue"}
			}
			b.Publish(e)
			e.Seq = uint64(i)
			retained = append(retained, e)
			if tc.ring > 0 && len(retained) > tc.ring {
				retained = retained[1:]
			}
		}
		for seq := uint64(0); seq <= uint64(tc.publish)+1; seq++ {
			var want []Event
			for _, e := range retained {
				if e.Seq > seq {
					want = append(want, e)
				}
			}
			got := b.Since(seq)
			if len(got) != len(want) {
				t.Fatalf("ring %d, %d published: Since(%d) = %d events, want %d",
					tc.ring, tc.publish, seq, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("ring %d, %d published: Since(%d)[%d] = %+v, want %+v",
						tc.ring, tc.publish, seq, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSinceAllocatesOnce: copying a full, wrapped ring (a fresh GET /events
// client's backfill, taken while Publish waits) is one allocation.
func TestSinceAllocatesOnce(t *testing.T) {
	const ring = 1024
	b := New(Options{Ring: ring})
	for i := 1; i <= ring+3; i++ {
		b.Publish(Event{Time: float64(i), Kind: KindBatch, Chip: 0, Model: "m", Batch: uint64(i)})
	}
	var got []Event
	if n := testing.AllocsPerRun(10, func() { got = b.Since(0) }); n != 1 {
		t.Fatalf("Since over a full ring: %v allocations, want 1", n)
	}
	if len(got) != ring || got[0].Seq != 4 || got[ring-1].Seq != ring+3 {
		t.Fatalf("Since copied %d events, seq %d..%d", len(got), got[0].Seq, got[len(got)-1].Seq)
	}
}

func TestSubscribeFilterAndDrop(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := New(Options{Registry: reg})
	kinds, _ := ParseKinds("batch")
	sub := b.Subscribe(1, kinds)
	defer sub.Close()

	b.Publish(Event{Time: 1, Kind: KindShed, Chip: -1, Model: "m", Reason: "queue"})
	b.Publish(Event{Time: 2, Kind: KindBatch, Chip: 0, Model: "m", Batch: 1})
	b.Publish(Event{Time: 3, Kind: KindBatch, Chip: 0, Model: "m", Batch: 2}) // channel full -> dropped

	e := <-sub.C()
	if e.Kind != KindBatch || e.Batch != 1 {
		t.Fatalf("first delivered event = %+v", e)
	}
	if d := sub.TakeDropped(); d != 1 {
		t.Fatalf("TakeDropped = %d, want 1", d)
	}
	if d := sub.TakeDropped(); d != 0 {
		t.Fatalf("TakeDropped not reset: %d", d)
	}
	if v := reg.Counter("odin_pulse_dropped_total", "").Value(); v != 1 {
		t.Fatalf("dropped counter = %d, want 1", v)
	}

	sub.Close()
	b.Publish(Event{Time: 4, Kind: KindBatch, Chip: 0, Model: "m", Batch: 3})
	select {
	case e := <-sub.C():
		if e.Batch == 3 {
			t.Fatal("closed subscription still receives")
		}
	default:
	}
}

func TestWriteLogCanonicalOrder(t *testing.T) {
	b := New(Options{})
	// Publish deliberately out of canonical order: later times first,
	// higher chips first at equal times.
	b.Publish(Event{Time: 2, Kind: KindBatch, Chip: 1, Model: "m", Batch: 5})
	b.Publish(Event{Time: 1, Kind: KindDecision, Chip: 0, Model: "m", Layers: 1})
	b.Publish(Event{Time: 1, Kind: KindBatch, Chip: 0, Model: "m", Batch: 1})
	b.Publish(Event{Time: 1, Kind: KindBatch, Chip: 0, Model: "m", Batch: 2})

	var sb strings.Builder
	if err := b.WriteLog(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("WriteLog lines = %d, want 4", len(lines))
	}
	wantOrder := []string{
		`"seq":1,"t":1,"kind":"batch","chip":0,"model":"m","batch":1`,
		`"seq":2,"t":1,"kind":"batch","chip":0,"model":"m","batch":2`,
		`"seq":3,"t":1,"kind":"decision","chip":0`,
		`"seq":4,"t":2,"kind":"batch","chip":1,"model":"m","batch":5`,
	}
	for i, want := range wantOrder {
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d = %s\n  want fragment %s", i, lines[i], want)
		}
	}
}

func TestSeriesBucketsAndSnapshot(t *testing.T) {
	b := New(Options{Interval: 1})
	b.Register(0, "VGG11")

	// Bucket [0,1): two batches.
	b.Publish(Event{Time: 0.2, Kind: KindBatch, Chip: 0, Model: "VGG11",
		Batch: 1, Size: 2, Queue: 1, Latency: 0.01, Energy: 1, Age: 0.2, Deadline: 10})
	b.Publish(Event{Time: 0.8, Kind: KindBatch, Chip: 0, Model: "VGG11",
		Batch: 2, Size: 3, Queue: 0, Latency: 0.02, Energy: 2, Age: 0.8, Deadline: 10})
	// Bucket [2,3): one batch plus a reprogram; bucket [1,2) stays implicit.
	b.Publish(Event{Time: 2.5, Kind: KindBatch, Chip: 0, Model: "VGG11",
		Batch: 3, Size: 1, Queue: 4, Latency: 0.3, Energy: 3, Age: 2.5, Deadline: 10})
	if df := b.Snapshot().Chips[0].DriftFrac; df != 0.25 {
		t.Fatalf("drift frac before reprogram = %g, want 0.25", df)
	}
	b.Publish(Event{Time: 2.6, Kind: KindReprogram, Chip: 0, Model: "VGG11",
		Pass: "forced", Count: 1, Age: 0})
	// Roll past bucket [2,3) so it closes.
	b.Publish(Event{Time: 3.1, Kind: KindDecision, Chip: 0, Model: "VGG11", Layers: 1,
		Evaluations: 4, Strategy: "rb"})
	b.Publish(Event{Time: 3.2, Kind: KindDecision, Chip: 0, Model: "VGG11", Layers: 1,
		Evaluations: 3, Strategy: "rb,degraded"})
	// A fleet-level shed counts once and owns no row.
	b.Publish(Event{Time: 3.2, Kind: KindShed, Chip: -1, Model: "VGG11", Reason: "reject"})

	st := b.Snapshot()
	if len(st.Chips) != 1 || st.Rejects != 1 {
		t.Fatalf("Snapshot chips = %d, rejects = %d; want 1 and 1", len(st.Chips), st.Rejects)
	}
	c := st.Chips[0]
	if c.Chip != 0 || c.Model != "VGG11" {
		t.Fatalf("chip row identity = %+v", c)
	}
	if c.Served != 6 || c.Batches != 3 || c.Reprograms != 1 || c.Decisions != 2 ||
		c.Evaluations != 7 || c.Strategy != "rb,degraded" {
		t.Fatalf("totals = served %d batches %d reprograms %d decisions %d evaluations %d strategy %q",
			c.Served, c.Batches, c.Reprograms, c.Decisions, c.Evaluations, c.Strategy)
	}
	if c.Queue != 4 {
		t.Fatalf("queue = %d, want 4", c.Queue)
	}
	if len(c.Buckets) != 2 {
		t.Fatalf("closed buckets = %d, want 2 (gap bucket must stay implicit)", len(c.Buckets))
	}
	b0, b1 := c.Buckets[0], c.Buckets[1]
	if b0.Start != 0 || b0.Completed != 5 || b0.Batches != 2 || b0.Energy != 3 {
		t.Fatalf("bucket[0] = %+v", b0)
	}
	if b1.Start != 2 || b1.Completed != 1 || b1.Reprograms != 1 {
		t.Fatalf("bucket[1] = %+v", b1)
	}
	if b0.P50 <= 0 || b0.P99 < b0.P50 {
		t.Fatalf("bucket[0] quantiles p50=%g p99=%g", b0.P50, b0.P99)
	}
	if c.Throughput != 1 { // last closed bucket: 1 request / 1 s interval
		t.Fatalf("throughput = %g, want 1", c.Throughput)
	}
	if c.DriftFrac != 0 {
		t.Fatalf("drift frac after reprogram reset = %g, want 0", c.DriftFrac)
	}
}

func TestSnapshotRemovedChip(t *testing.T) {
	b := New(Options{})
	b.Publish(Event{Time: 1, Kind: KindBatch, Chip: 2, Model: "m", Size: 1,
		Queue: 3, Latency: 0.1, Deadline: math.Inf(1)})
	b.Publish(Event{Time: 2, Kind: KindLifecycle, Chip: 2, Model: "m",
		Action: "remove", Fleet: 0})
	st := b.Snapshot()
	if len(st.Chips) != 1 {
		t.Fatalf("chips = %d", len(st.Chips))
	}
	c := st.Chips[0]
	if !c.Removed || c.Queue != 0 {
		t.Fatalf("removed chip row = %+v", c)
	}
	if c.DriftFrac != 0 {
		t.Fatalf("infinite deadline must yield DriftFrac 0, got %g", c.DriftFrac)
	}
}
