package main

import (
	"math"
	"math/rand/v2"
	"sync"
	"time"
)

// send is one request of an open-loop schedule: when it is due, relative
// to the schedule's start, and how many inferences its body asks for.
type send struct {
	at    time.Duration
	count int
}

// bodyMix is the share of request bodies asking for 1, 2, 3 and 4
// inferences. Multi-inference bodies make the dispatcher coalesce.
var bodyMix = []float64{0.88, 0.06, 0.03, 0.03}

// schedule draws a Poisson arrival schedule of the given rate (requests
// per second) over dur, with body counts from bodyMix. The same rng state
// gives the same schedule.
func schedule(rng *rand.Rand, rate float64, dur time.Duration) []send {
	var out []send
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		u, count := rng.Float64(), len(bodyMix)
		for i, p := range bodyMix {
			if u < p {
				count = i + 1
				break
			}
			u -= p
		}
		out = append(out, send{at: time.Duration(t * float64(time.Second)), count: count})
	}
}

// outcome is one request's record. Times are offsets from the schedule's
// start.
type outcome struct {
	due     time.Duration // scheduled send time
	release time.Duration // when the generator released it to a connection
	done    time.Duration // when its response was fully read
	status  int           // HTTP status; 0 on a transport error
	bad     bool          // the response was malformed or unexpected
}

// latency is the request's time from its scheduled send to its response:
// waiting for a free connection counts, so a stall delays later requests.
func (o outcome) latency() time.Duration { return o.done - o.due }

// lag is how late the generator released the request.
func (o outcome) lag() time.Duration { return o.release - o.due }

// doFunc performs one request and reports its HTTP status and whether the
// reply was malformed.
type doFunc func(s send) (status int, bad bool)

// openLoop plays sends on their schedule over at most conns concurrent
// requests, whatever the responses' pace, and returns one outcome per
// send. A releaser goroutine waits for each due time and queues the send;
// conns workers take queued sends in order.
func openLoop(sends []send, conns int, do doFunc) []outcome {
	out := make([]outcome, len(sends))
	queue := make(chan int, len(sends)) // never blocks the releaser
	start := time.Now()
	go func() {
		defer close(queue)
		for i, s := range sends {
			if d := time.Until(start.Add(s.at)); d > 0 {
				time.Sleep(d)
			}
			out[i].due = s.at
			out[i].release = time.Since(start)
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				st, bad := do(sends[i])
				out[i].done = time.Since(start)
				out[i].status, out[i].bad = st, bad
			}
		}()
	}
	wg.Wait()
	return out
}

// rungStats summarises one rate's outcomes against a latency limit.
type rungStats struct {
	rate     float64
	n        int
	p50, p99 time.Duration // over served (200) requests
	meanLat  time.Duration // over served requests
	met      float64       // share of all requests served within the limit
	refused  int           // 429s: every inference shed
	failed   int           // other statuses, transport errors, malformed replies
	lagP99   time.Duration
	// goodput is the rate of 200 responses over the rung's span, from its
	// first scheduled send to its last response: past saturation, the
	// highest rate the server sustains.
	goodput float64
}

func summarise(rate float64, outs []outcome, limit time.Duration) rungStats {
	st := rungStats{rate: rate, n: len(outs)}
	var lats, lags []float64
	met := 0
	for _, o := range outs {
		lags = append(lags, float64(o.lag()))
		switch {
		case o.status == 429:
			st.refused++
		case o.status != 200 || o.bad:
			st.failed++
		default:
			lats = append(lats, float64(o.latency()))
			if o.latency() <= limit {
				met++
			}
		}
	}
	if len(outs) > 0 {
		st.met = float64(met) / float64(len(outs))
	}
	st.p50 = time.Duration(percentile(lats, 0.50))
	st.p99 = time.Duration(percentile(lats, 0.99))
	var sum float64
	for _, l := range lats {
		sum += l
	}
	if len(lats) > 0 {
		st.meanLat = time.Duration(sum / float64(len(lats)))
	}
	st.lagP99 = time.Duration(percentile(lags, 0.99))
	var last time.Duration
	for _, o := range outs {
		last = max(last, o.done)
	}
	if len(outs) > 0 && last > outs[0].due {
		st.goodput = float64(len(lats)) / (last - outs[0].due).Seconds()
	}
	return st
}

// maxRate is the highest offered rate whose p99 meets the limit: at least
// 99% of requests served within it, refusals counting as misses. Between
// the last rung that meets it and the first that does not, the share met
// is interpolated linearly to find where it crosses 99%. Because latency
// is timed from the scheduled send, a growing backlog fails the rung too.
// It returns 0 when even the first rung misses, and the top rate when none
// does.
func maxRate(rungs []rungStats) float64 {
	const target = 0.99
	for i, r := range rungs {
		if r.met >= target {
			continue
		}
		if i == 0 {
			return 0
		}
		prev := rungs[i-1]
		frac := (prev.met - target) / (prev.met - r.met)
		return prev.rate + (r.rate-prev.rate)*math.Min(1, math.Max(0, frac))
	}
	return rungs[len(rungs)-1].rate
}
