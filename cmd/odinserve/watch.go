package main

// odinserve watch: a live terminal fleet dashboard. It consumes the GET
// /events SSE stream and, on events, redraws the server's GET /statusz
// snapshot: per-chip rows (queue depth, latency quantiles, drift age and
// the router's near-deadline verdict, reprogram count) plus fleet totals.
// Redraws are throttled by wall-clock reads from clock.NewReal — the one
// clock source a live binary may construct — so the watcher never owns a
// timer: a quiet fleet simply leaves the last frame on screen.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"odin/internal/clock"
	"odin/internal/pulse"
	"odin/internal/serve"
)

func runWatch(args []string) error {
	fs := flag.NewFlagSet("odinserve watch", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:8080", "odinserve base URL")
	types := fs.String("types", "", "comma-separated event kinds to stream (default all): "+
		"lifecycle|batch|reprogram|decision|shed")
	interval := fs.Float64("interval", 1, "minimum seconds between dashboard redraws")
	raw := fs.Bool("raw", false, "print raw event JSON lines instead of the dashboard")
	count := fs.Uint64("n", 0, "exit after this many events (0 = until the stream ends)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := pulse.ParseKinds(*types); err != nil {
		return err
	}
	return watchStream(*addr, *types, *interval, *raw, *count, os.Stdout)
}

// watchStream is the testable core of `odinserve watch`: it connects to
// base, consumes /events, and renders to out. Each frame draws the
// server's own fold, one /statusz body fetched at the redraw, so the
// dashboard reads what /statusz reads; the events only trigger redraws.
// maxEvents > 0 stops after that many events (smoke tests); otherwise the
// stream runs until the server closes it or the process is killed. The
// last frame is fetched after the stream ends, or repeats the last body
// fetched when the server has gone.
func watchStream(base, types string, interval float64, raw bool, maxEvents uint64, out io.Writer) error {
	base = strings.TrimSuffix(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	st, err := fetchStatus(base)
	if err != nil {
		return err
	}
	refresh := func() {
		if next, err := fetchStatus(base); err == nil {
			st = next
		}
	}

	target := base + "/events"
	if types != "" {
		target += "?types=" + types
	}
	resp, err := http.Get(target)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET /events: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		return fmt.Errorf("GET /events: Content-Type %q, want text/event-stream", ct)
	}

	// Redraw throttle. clock.NewReal is the sanctioned wall-clock for live
	// binaries; the watcher reads it only on event arrival, never from a
	// timer, so an idle stream costs nothing.
	clk := clock.NewReal()
	lastDraw := math.Inf(-1)
	var events uint64
	err = readSSE(resp.Body, func(f sseFrame) error {
		events++
		if raw {
			fmt.Fprintf(out, "%s\n", f.data)
		} else if now := clk.Now(); now-lastDraw >= interval {
			lastDraw = now
			refresh()
			fmt.Fprint(out, "\x1b[H\x1b[2J")
			render(out, st)
		}
		if maxEvents > 0 && events >= maxEvents {
			return errWatchDone
		}
		return nil
	})
	if err != nil && err != errWatchDone {
		return err
	}
	refresh()
	if !raw {
		fmt.Fprint(out, "\x1b[H\x1b[2J")
	}
	render(out, st)
	return nil
}

// errWatchDone stops the SSE read loop after -n events.
var errWatchDone = fmt.Errorf("watch: event budget reached")

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	id    uint64
	event string
	data  []byte
}

// readSSE parses an SSE byte stream and invokes fn per complete frame.
// Comment lines (": ...") are skipped. fn returning an error ends the
// read; io.EOF from the stream itself is a clean stop.
func readSSE(r io.Reader, fn func(sseFrame) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var cur sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(cur.data) > 0 {
				if err := fn(cur); err != nil {
					return err
				}
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, ":"):
			// comment/keepalive
		case strings.HasPrefix(line, "id: "):
			if n, err := strconv.ParseUint(line[4:], 10, 64); err == nil {
				cur.id = n
			}
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = append(cur.data, line[6:]...)
		}
	}
	return sc.Err()
}

// fetchStatus decodes one GET /statusz body.
func fetchStatus(base string) (serve.Statusz, error) {
	var st serve.Statusz
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		return st, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /statusz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("GET /statusz: %w", err)
	}
	return st, nil
}

// render writes one dashboard frame from a /statusz body: a header, one
// row per chip in id order, and fleet totals.
func render(w io.Writer, st serve.Statusz) {
	live := 0
	for _, c := range st.Chips {
		if !c.Removed {
			live++
		}
	}
	state := "serving"
	if st.Draining {
		state = "draining"
	}
	fmt.Fprintf(w, "odinserve fleet  t=%.3fs  router=%s  chips=%d live / %d total  events=%d  %s\n",
		st.Time, st.Router, live, len(st.Chips), st.Seq, state)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "chip\tmodel\tq\tp50(ms)\tp99(ms)\tage(s)\tdrift\trp\tserved\tsheds\tevals\tstrat")
	var served, sheds, reprograms, evals uint64
	for _, c := range st.Chips {
		served += c.Served
		sheds += c.Sheds
		reprograms += c.Reprograms
		evals += c.Evaluations
		if c.Removed {
			fmt.Fprintf(tw, "%d\t%s\t-\t-\t-\t-\t-\t%d\t%d\t%d\t%d\tremoved\n",
				c.Chip, c.Model, c.Reprograms, c.Served, c.Sheds, c.Evaluations)
			continue
		}
		p50, p99 := "-", "-"
		if c.Batches > 0 {
			p50, p99 = strconv.FormatFloat(c.P50*1e3, 'f', 2, 64), strconv.FormatFloat(c.P99*1e3, 'f', 2, 64)
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\t%s\t%s\t%.3f\t%s\t%d\t%d\t%d\t%d\t%s\n",
			c.Chip, c.Model, c.Queue, p50, p99, c.Age, driftVerdict(c.DriftFrac, st.DriftMargin),
			c.Reprograms, c.Served, c.Sheds, c.Evaluations, c.Strategy)
	}
	_ = tw.Flush()
	fmt.Fprintf(w, "fleet: served=%d sheds=%d rejects=%d reprograms=%d evals=%d\n",
		served, sheds, st.Rejects, reprograms, evals)
}

// driftVerdict renders the chip's position against its forced-reprogram
// deadline the way the drift router judges it: the filled fraction, with a
// "near" marker once past the server's drift margin.
func driftVerdict(frac, margin float64) string {
	if frac <= 0 {
		return "-"
	}
	v := strconv.FormatFloat(100*frac, 'f', 0, 64) + "%"
	if frac >= margin {
		v += " near"
	}
	return v
}
