package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profiled runs fn under a runtime/pprof CPU profile of this process when
// on is set and returns the gzipped profile.
func profiled(on bool, fn func() error) ([]byte, error) {
	if !on {
		return nil, fn()
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// shareModules are the cpu_share.<module> keys: odin packages by their
// import-path element, plus net/http and two runtime buckets.
var shareModules = []string{
	"mlp", "mat", "policy", "core", "decache", "opt", "search", "serve", "pulse", "telemetry",
	"net_http", "runtime_gc", "runtime_malloc",
}

// cpuShares turns a gzipped pprof CPU profile into flat self-time shares
// per module. A sample counts as runtime_gc when any frame of its stack is
// collector work, as runtime_malloc when any frame is the allocator, and
// otherwise belongs to the module of its leaf function. Modules outside
// shareModules are left out, so the shares sum to at most 1. A missing,
// unreadable or empty profile is an error.
func cpuShares(gz []byte) (map[string]float64, error) {
	if len(gz) == 0 {
		return nil, fmt.Errorf("profile: no CPU profile was taken")
	}
	stacks, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	self := map[string]float64{}
	var total float64
	for _, s := range stacks {
		total += s.value
		self[moduleOf(s.frames)] += s.value
	}
	if total <= 0 {
		return nil, fmt.Errorf("profile: no samples")
	}
	out := map[string]float64{}
	for _, m := range shareModules {
		out[m] = self[m] / total
	}
	return out, nil
}

func moduleOf(frames []string) string {
	for _, f := range frames {
		if isGC(f) {
			return "runtime_gc"
		}
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.mallocgc"), f == "runtime.newobject",
			f == "runtime.makeslice", f == "runtime.growslice":
			return "runtime_malloc"
		}
	}
	if len(frames) == 0 {
		return ""
	}
	leaf := frames[0]
	if strings.HasPrefix(leaf, "net/http.") {
		return "net_http"
	}
	if rest, ok := strings.CutPrefix(leaf, "odin/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		return pkg
	}
	return ""
}

func isGC(f string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// stack is one profile sample: function names leaf first, and its last
// sample value (CPU nanoseconds for a CPU profile).
type stack struct {
	frames []string
	value  float64
}

// decodeProfile reads the samples of a gzipped profile.proto message with
// a minimal protobuf reader (the fields pprof's Profile, Sample, Location,
// Line and Function messages need).
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		strs    []string
		locFunc = map[uint64][]uint64{} // location id -> function ids, innermost first
		funName = map[uint64]int64{}    // function id -> string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stack{value: float64(s.vals[len(s.vals)-1])}
		for _, l := range s.locs {
			for _, f := range locFunc[l] {
				if i := funName[f]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendVarints appends a repeated varint field's values: one value for
// the unpacked encoding (b == nil) or every value of a packed run.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// fields walks one protobuf message, calling fn with each field's number
// and either its scalar value (b == nil) or its length-delimited bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := varint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// varint decodes one base-128 varint; n <= 0 on malformed input.
func varint(b []byte) (v uint64, n int) {
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
