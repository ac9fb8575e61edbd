package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"odin/internal/serve"
)

// The serve-http workload's offered-rate ladder (requests per second),
// chosen once and committed: from about a quarter of the shipped 2-chip
// server's saturation rate on a 2-core host (about 550 req/s over two
// connections) to well past it. It is never recalibrated, so later commits
// are measured at the same rates.
//
// A pass is split into shares: one unmeasured warm-up share at the light
// rate (a fresh server's policies update back to back at first),
// latencyShares at latencyRung, and one for every other rung. p50_ms and
// p99_ms are read at latencyRung, the light-load rung: from about half of
// saturation up, policy updates keep a chip busy so much of the time that
// the median sits on the edge between requests that wait for an update and
// requests that do not, and moves by 2x between runs. At light load the
// median is the plain service time and the p99 is the wait behind an
// update. rate_per_s is the goodput at the top rung, where the offered
// rate exceeds what the server sustains. latencyLimit is the p99 limit
// each rung is judged against in the printed ladder.
var ladder = []float64{125, 250, 375, 500, 750}

const (
	latencyRung   = 0
	latencyShares = 7
	latencyLimit  = 50 * time.Millisecond
	setupServers  = 7
)

// serveHTTP measures the serve-http workload: the odinserve binary as
// shipped (2 VGG11 chips, default flags, loopback), driven open loop by one
// generator over at most nproc keep-alive connections. Each rung is a
// Poisson schedule drawn from the seed. An operation is one HTTP request;
// it fails on a status other than 200 or 429, a transport error or a
// malformed reply. A 429 is a refusal: it misses the latency limit but is
// the server working as documented. Set-up is starting the binary until
// /healthz answers.
func serveHTTP(e *env, m mode) (*pass, error) {
	bin := filepath.Join(e.binDir, "odinserve")
	p := newPass()
	var srv *server
	if m == timed {
		var setup []float64
		for i := 0; i < setupServers; i++ {
			s, secs, err := startServer(bin, false)
			if err != nil {
				return nil, err
			}
			setup = append(setup, secs)
			if i == setupServers-1 {
				srv = s
			} else if err := s.stop(); err != nil {
				return nil, err
			}
		}
		p.e2e.set("setup_s", median(setup), "s")
	} else {
		s, _, err := startServer(bin, m == traced)
		if err != nil {
			return nil, err
		}
		srv = s
	}
	defer srv.kill()

	conns := runtime.NumCPU()
	share := e.budget(m) / float64(len(ladder)+latencyShares)
	shares := func(n int) time.Duration { return time.Duration(float64(n) * share * float64(time.Second)) }
	type fetched struct {
		body []byte
		err  error
	}
	var profc chan fetched
	if m == traced {
		profc = make(chan fetched, 1)
		secs := int(math.Max(1, math.Round(e.budget(m))))
		go func() {
			b, err := srv.get(fmt.Sprintf("/debug/pprof/profile?seconds=%d", secs))
			profc <- fetched{b, err}
		}()
	}
	rng := rand.New(rand.NewPCG(e.seed, 0x68747470))
	warm := summarise(ladder[latencyRung], openLoop(schedule(rng, ladder[latencyRung], shares(1)), conns, srv.infer), latencyLimit)
	p.attempted += warm.n
	p.failed += warm.failed
	var rungs []rungStats
	var lags []float64
	for i, rate := range ladder {
		n := 1
		if i == latencyRung {
			n = latencyShares
		}
		outs := openLoop(schedule(rng, rate, shares(n)), conns, srv.infer)
		st := summarise(rate, outs, latencyLimit)
		rungs = append(rungs, st)
		p.attempted += st.n
		p.failed += st.failed
		for _, o := range outs {
			lags = append(lags, float64(o.lag()))
		}
		fmt.Printf("rung %4.0f req/s: n=%d p50=%.2fms p99=%.2fms within-limit=%.4f goodput=%.1f/s refused=%d failed=%d lag_p99=%.2fms\n",
			rate, st.n, ms(st.p50), ms(st.p99), st.met, st.goodput, st.refused, st.failed, ms(st.lagP99))
	}
	fmt.Printf("highest rate meeting the %v p99 limit: %.1f req/s\n", latencyLimit, maxRate(rungs))
	fmt.Printf("generator lag p99 over the ladder: %.2fms\n", ms(time.Duration(percentile(lags, 0.99))))
	light := rungs[latencyRung]
	p.cost = light.meanLat.Seconds()

	if m == traced {
		prof := <-profc
		if prof.err != nil {
			return nil, fmt.Errorf("cpu profile: %w", prof.err)
		}
		p.profile = prof.body
		var scrapes []float64
		var text []byte
		for i := 0; i < 10; i++ {
			t := time.Now()
			var err error
			if text, err = srv.get("/metrics"); err != nil {
				return nil, err
			}
			scrapes = append(scrapes, 1e3*since(t))
		}
		p.layer.set("serve.metrics_scrape_ms", median(scrapes), "ms")
		prom := parseProm(string(text))
		if err := servedCounters(p.layer, prom); err != nil {
			return nil, err
		}
		updates, ok := prom["odinserve_chip_policy_updates_total"]
		if !ok {
			return nil, fmt.Errorf("metrics scrape has no odinserve_chip_policy_updates_total")
		}
		p.layer.set("core.policy_updates", updates, "count")
		for _, k := range []string{"decision", "predict"} {
			r, err := promRatio(prom, "odin_decache_"+k+"_hits_total", "odin_decache_"+k+"_misses_total")
			if err != nil {
				return nil, err
			}
			p.layer.set("decache."+k+"_hit_ratio", r, "ratio")
		}
		if err := newServerLayer(p.layer); err != nil {
			return nil, err
		}
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if m == timed {
		p.e2e.set("rate_per_s", rungs[len(rungs)-1].goodput, "1/s")
		p.e2e.set("p50_ms", ms(light.p50), "ms")
		p.e2e.set("p99_ms", ms(light.p99), "ms")
	}
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// promRatio is hits / (hits + misses) from a scrape that must carry both
// counters; no lookups at all reads 0.
func promRatio(prom map[string]float64, hits, misses string) (float64, error) {
	h, okH := prom[hits]
	m, okM := prom[misses]
	if !okH || !okM {
		return 0, fmt.Errorf("metrics scrape lacks %s or %s", hits, misses)
	}
	if h+m == 0 {
		return 0, nil
	}
	return h / (h + m), nil
}

// server is one running odinserve process.
type server struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	exited  chan struct{}
	waitErr error
}

// startServer launches `odinserve serve` on a free loopback port and
// returns once GET /healthz answers 200, with the seconds that took.
func startServer(bin string, debug bool) (*server, float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, 0, err
	}
	args := []string{"serve", "-addr", addr}
	if debug {
		args = append(args, "-debug")
	}
	conns := runtime.NumCPU()
	s := &server{
		cmd:  exec.Command(bin, args...),
		base: "http://" + addr,
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
			Timeout:   60 * time.Second,
		},
		exited: make(chan struct{}),
	}
	// The server dies with the benchmark, however the benchmark exits.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stdout = io.Discard // the listen line and the drain summary
	s.cmd.Stderr = os.Stderr
	t := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start odinserve: %w", err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	for {
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("odinserve exited during start-up: %v", s.waitErr)
		default:
		}
		if resp, err := s.client.Get(s.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, since(t), nil
			}
		}
		if since(t) > 60 {
			s.kill()
			return nil, 0, fmt.Errorf("odinserve not healthy after 60s")
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop sends SIGTERM, waits for the drain, and requires a clean exit.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(60 * time.Second):
		s.kill()
		return fmt.Errorf("odinserve did not drain within 60s")
	}
	// odinserve installs its SIGTERM handler just after it starts answering,
	// so a SIGTERM right after start-up can end it by the default action:
	// a stop all the same.
	var exit *exec.ExitError
	if errors.As(s.waitErr, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	if s.waitErr != nil {
		return fmt.Errorf("odinserve: %w", s.waitErr)
	}
	return nil
}

// kill ends the process if it is still running and waits for it.
func (s *server) kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Kill() // already exiting is fine; Wait below settles it
	<-s.exited
}

// get fetches one path and returns the body of a 200 reply.
func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

// infer posts one /infer body and checks the reply: a 200 or 429 must
// carry one response per requested inference, and every inference that
// was not shed must carry its per-layer OU sizes.
func (s *server) infer(sd send) (status int, bad bool) {
	body := `{"model":"VGG11","count":` + strconv.Itoa(sd.count) + `}`
	resp, err := s.client.Post(s.base+"/infer", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, true
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, true
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
		return resp.StatusCode, true
	}
	var reply serve.InferReply
	if err := json.Unmarshal(raw, &reply); err != nil || len(reply.Responses) != sd.count {
		return resp.StatusCode, true
	}
	shed := 0
	for _, r := range reply.Responses {
		switch {
		case r.Shed:
			shed++
		case r.Err != "" || len(r.Sizes) == 0 || r.Energy <= 0 || r.Latency <= 0:
			bad = true
		}
	}
	if resp.StatusCode == http.StatusTooManyRequests && shed != sd.count {
		bad = true
	}
	return resp.StatusCode, bad
}
