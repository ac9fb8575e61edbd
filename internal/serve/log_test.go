package serve

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"odin/internal/check"
	"odin/internal/ou"
	"odin/internal/rng"
)

// frozenLogLine is the decision-log line renderer as it was before WriteLog
// appended into one reused buffer: a fresh strings.Builder per line and
// strconv.Format*. It is kept verbatim as the byte-level reference
// TestPropWriteLogMatchesFrozenRenderer compares WriteLog against.
func frozenLogLine(w io.Writer, resp *Response) error {
	var sb strings.Builder
	sb.WriteString("req=")
	if resp.Rejected {
		sb.WriteString("rejected")
	} else {
		sb.WriteString(strconv.FormatUint(resp.ID, 10))
	}
	switch {
	case resp.Err != "":
		sb.WriteString(" err=")
		sb.WriteString(strconv.Quote(resp.Err))
	case resp.Shed:
		sb.WriteString(" chip=")
		sb.WriteString(strconv.Itoa(resp.Chip))
		sb.WriteString(" shed=true")
	default:
		sb.WriteString(" chip=")
		sb.WriteString(strconv.Itoa(resp.Chip))
		sb.WriteString(" batch=")
		sb.WriteString(strconv.FormatUint(resp.Batch, 10))
		sb.WriteString(" ou=")
		for j, sz := range resp.Sizes {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(sz.R))
			sb.WriteByte('x')
			sb.WriteString(strconv.Itoa(sz.C))
		}
		sb.WriteString(" E=")
		sb.WriteString(strconv.FormatFloat(resp.Energy, 'g', -1, 64))
		sb.WriteString(" L=")
		sb.WriteString(strconv.FormatFloat(resp.Latency, 'g', -1, 64))
		sb.WriteString(" wait=")
		sb.WriteString(strconv.FormatFloat(resp.Wait, 'g', -1, 64))
		if resp.Reprogrammed {
			sb.WriteString(" reprogram=true")
		}
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

// logErrPieces are the fragments generated Err strings are built from:
// quotes, backslashes, control bytes, a line separator, multi-byte runes
// and invalid UTF-8 — everything strconv.Quote escapes.
var logErrPieces = []string{
	"serve: unknown model", `"`, `\`, "\x00", "\x1b[0m", "\n", "\t", "\x7f",
	"\xff", "\xc3(", "\xe2\x82", "µs", " ", "é", " ",
}

// logFloats are the float fields' edge values: NaN, ±Inf, −0, the smallest
// subnormal, the first magnitude 'g' renders with an exponent, and
// ordinary values.
var logFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, 1e21, 1e20, 1e-7, 2.5e-6, 123.456, math.MaxFloat64,
}

// genLogFloat draws an edge value or a random float across magnitudes.
func genLogFloat(src *rng.Source) float64 {
	if src.Bernoulli(0.5) {
		return logFloats[src.Intn(len(logFloats))]
	}
	return (src.Float64() - 0.5) * math.Pow(10, float64(src.Intn(60)-30))
}

// genResponse draws one decision-log Response: rejected, error, shed or
// admitted, with 0–130 sizes and edge values in every float field.
func genResponse(src *rng.Source) Response {
	r := Response{
		ID:           src.Uint64() >> uint(src.Intn(64)),
		Chip:         src.Intn(2050) - 1,
		Batch:        src.Uint64() >> uint(src.Intn(64)),
		Energy:       genLogFloat(src),
		Latency:      genLogFloat(src),
		Wait:         genLogFloat(src),
		Reprogrammed: src.Bernoulli(0.3),
	}
	switch src.Intn(4) {
	case 0:
		r.Rejected, r.ID = true, RejectedID
		if src.Bernoulli(0.5) {
			r.Err = "serve: server is draining"
		}
	case 1:
		var b strings.Builder
		for k := 1 + src.Intn(6); k > 0; k-- {
			b.WriteString(logErrPieces[src.Intn(len(logErrPieces))])
		}
		r.Err = b.String()
	case 2:
		r.Shed = true
	}
	r.Sizes = make([]ou.Size, src.Intn(131))
	for j := range r.Sizes {
		r.Sizes[j] = ou.Size{R: 1 << (2 + src.Intn(6)), C: src.Intn(300) - 20}
	}
	return r
}

// TestPropWriteLogMatchesFrozenRenderer pins the decision log's bytes:
// WriteLog renders exactly what the frozen per-line strings.Builder
// renderer did, for generated rejected, error, shed and admitted
// responses.
func TestPropWriteLogMatchesFrozenRenderer(t *testing.T) {
	t.Parallel()
	gen := check.Gen[[]Response]{
		Generate: func(t *check.T) []Response {
			out := make([]Response, t.Rng.Intn(1+t.Size))
			for i := range out {
				out[i] = genResponse(t.Rng)
			}
			return out
		},
		Shrink: func(rs []Response) [][]Response {
			var out [][]Response
			for i := range rs {
				out = append(out, append(append([]Response(nil), rs[:i]...), rs[i+1:]...))
			}
			return out
		},
	}
	check.Run(t, gen, func(rs []Response) error {
		var want bytes.Buffer
		for i := range rs {
			if err := frozenLogLine(&want, &rs[i]); err != nil {
				return err
			}
		}
		var got bytes.Buffer
		if err := (ReplayResult{Responses: rs}).WriteLog(&got); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			return fmt.Errorf("WriteLog rendered\n%q\nthe frozen renderer\n%q", got.Bytes(), want.Bytes())
		}
		return nil
	})
}

// logFixture returns n responses cycling through the decision log's line
// shapes — admitted with 11, 21 and 130 sizes (with and without a
// reprogram), shed, routing error and rejected — so every prefix longer
// than one cycle contains the longest line.
func logFixture(n int) ReplayResult {
	shapes := []Response{
		{Chip: 3, Batch: 17, Sizes: make([]ou.Size, 11), Energy: 1.25e-4, Latency: 3.5e-3, Wait: 0.0125},
		{Chip: 1021, Batch: 4096, Sizes: make([]ou.Size, 21), Energy: 2.5e-4, Latency: 7e-3, Wait: 0.25, Reprogrammed: true},
		{Chip: 512, Shed: true},
		{Chip: -1, Err: `serve: unknown model "VGG\x00"`},
		{Rejected: true, ID: RejectedID, Err: "serve: server is draining"},
		{Chip: 7, Batch: 1, Sizes: make([]ou.Size, 130), Energy: math.Inf(1), Latency: 5e-324, Wait: math.NaN()},
	}
	for i := range shapes {
		for j := range shapes[i].Sizes {
			shapes[i].Sizes[j] = ou.Size{R: 128, C: 4 << (j % 6)}
		}
	}
	res := ReplayResult{Responses: make([]Response, n)}
	for i := range res.Responses {
		res.Responses[i] = shapes[i%len(shapes)]
		if !res.Responses[i].Rejected {
			res.Responses[i].ID = uint64(i)
		}
	}
	return res
}

// TestWriteLogAllocsFlat pins WriteLog's allocations: one reused line
// buffer, so a log of 1,000 responses allocates exactly as often as one of
// 100, and only a few times.
func TestWriteLogAllocsFlat(t *testing.T) {
	const bound = 4
	small, large := logFixture(100), logFixture(1000)
	a100 := testing.AllocsPerRun(20, func() { _ = small.WriteLog(io.Discard) })
	a1000 := testing.AllocsPerRun(20, func() { _ = large.WriteLog(io.Discard) })
	if a100 != a1000 || a1000 > bound {
		t.Fatalf("WriteLog allocates %v times for 100 responses and %v for 1,000; want equal and at most %d",
			a100, a1000, bound)
	}
}

// BenchmarkReplayWriteLog measures rendering a replay-fleet-sized decision
// log (16,384 responses) into the FNV-1a hash that ReplayOps checksums it
// with.
func BenchmarkReplayWriteLog(b *testing.B) {
	res := logFixture(16384)
	h := fnv.New64a()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		if err := res.WriteLog(h); err != nil {
			b.Fatal(err)
		}
	}
}
