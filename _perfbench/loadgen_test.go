package main

import (
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopTimesFromScheduledSend drives a stub handler with a fixed
// delay and one injected stall over a single connection. Latency must be
// timed from each request's scheduled send, so the requests due while the
// stall held the connection show it too, while the generator's own lag
// stays small and is reported apart from it.
func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	const (
		delay   = 2 * time.Millisecond
		stall   = 150 * time.Millisecond
		gap     = 10 * time.Millisecond
		stallAt = 20 // index of the stalled request
	)
	var calls atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := delay
		if calls.Add(1) == stallAt+1 { // one connection: calls arrive in schedule order
			d = stall
		}
		time.Sleep(d)
		w.WriteHeader(http.StatusOK)
	}))
	defer stub.Close()
	client := stub.Client()

	sends := make([]send, 60)
	for i := range sends {
		sends[i] = send{at: time.Duration(i) * gap, count: 1}
	}
	outs := openLoop(sends, 1, func(send) (int, bool) {
		resp, err := client.Post(stub.URL, "application/json", nil)
		if err != nil {
			return 0, true
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, false
	})

	for i, o := range outs {
		if o.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, o.status)
		}
		if o.due != sends[i].at {
			t.Fatalf("request %d: due %v, scheduled %v", i, o.due, sends[i].at)
		}
		if o.lag() < 0 {
			t.Fatalf("request %d: negative lag %v", i, o.lag())
		}
	}
	// The stalled request itself, and the next one, which was due while
	// the stall held the only connection.
	for _, i := range []int{stallAt, stallAt + 1} {
		if got := outs[i].latency(); got < stall/2 {
			t.Errorf("request %d: latency %v from its scheduled send, want the %v stall to show", i, got, stall)
		}
		if outs[i].lag() >= outs[i].latency()-stall/4 {
			t.Errorf("request %d: lag %v should exclude the wait for the connection (latency %v)", i, outs[i].lag(), outs[i].latency())
		}
	}
	st := summarise(100, outs, 50*time.Millisecond)
	if st.met >= 1 || st.met < 0.5 {
		t.Errorf("share within 50ms = %.3f, want the stall's victims to miss and the rest to meet it", st.met)
	}
	if st.lagP99 <= 0 || st.lagP99 >= stall/2 {
		t.Errorf("generator lag p99 = %v, want it reported and well below the stall", st.lagP99)
	}
}

// TestScheduleDeterministic checks that the same seed gives the same
// arrival schedule and body mix, that another seed does not, and that the
// mix includes multi-inference bodies.
func TestScheduleDeterministic(t *testing.T) {
	draw := func(seed uint64) []send {
		return schedule(rand.New(rand.NewPCG(seed, 1)), 400, 5*time.Second)
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 1600 || n > 2400 {
		t.Errorf("%d arrivals in 5s at 400/s", n)
	}
	multi := 0
	for i, s := range a {
		if i > 0 && s.at < a[i-1].at {
			t.Fatalf("schedule not in time order at %d", i)
		}
		if s.count > 1 {
			multi++
		}
	}
	if multi == 0 || multi > len(a)/4 {
		t.Errorf("%d of %d bodies ask for several inferences", multi, len(a))
	}
}

func TestMaxRate(t *testing.T) {
	rung := func(rate, met float64) rungStats { return rungStats{rate: rate, met: met} }
	cases := []struct {
		rungs []rungStats
		want  float64
	}{
		{[]rungStats{rung(100, 1), rung(200, 0.995), rung(300, 0.595)}, 201.25},
		{[]rungStats{rung(100, 0.5), rung(200, 0.1)}, 0},
		{[]rungStats{rung(100, 1), rung(200, 1)}, 200},
	}
	for _, c := range cases {
		if got := maxRate(c.rungs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("maxRate(%v) = %v, want %v", c.rungs, got, c.want)
		}
	}
}
