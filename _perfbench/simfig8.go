package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"

	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/experiments"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 9

// fig8Epochs is the number of simulated decision epochs in one Fig. 8
// regeneration: 9 workloads × (4 baselines + Odin) × 1000-epoch horizons.
const fig8Epochs = 9 * 5 * 1000

// simFig8 regenerates Fig. 8 through the experiment engine, exactly as
// `odinsim fig8` does, on a pool of nproc workers. Fig. 8 has no random
// inputs (the paper fixes its configuration), so the seed selects nothing.
// Each regeneration is one operation; its artefact bytes must hash to the
// committed digest.
//
// Set-up is preparing the nine zoo workloads (model construction, mapping
// and pruning), the per-horizon preparation Fig. 8 repeats.
func simFig8(e *env, m mode) (*pass, error) {
	p := newPass()
	if m == timed {
		var setup []float64
		for i := 0; i < setupReps; i++ {
			t := time.Now()
			if err := prepareZoo(); err != nil {
				return nil, err
			}
			setup = append(setup, since(t))
		}
		p.e2e.set("setup_s", median(setup), "s")
	}

	var walls []float64
	var before, after runtime.MemStats
	var err error
	p.profile, err = profiled(m == traced, func() error {
		start := time.Now()
		for len(walls) == 0 || e.another(m, since(start), walls[len(walls)-1]) {
			var buf bytes.Buffer
			runtime.ReadMemStats(&before)
			t := time.Now()
			_, err := experiments.RunAll(&buf, experiments.RunOptions{
				IDs: []string{"fig8"}, Workers: runtime.NumCPU(),
			})
			walls = append(walls, since(t))
			runtime.ReadMemStats(&after)
			p.attempted++
			if err != nil {
				p.failed++
				fmt.Fprintln(os.Stderr, "perfbench: fig8:", err)
			} else if got := digest(buf.Bytes()); got != expected.Fig8SHA256 {
				p.failed++
				fmt.Fprintf(os.Stderr, "perfbench: fig8 artefact digest %s, committed %s\n", got, expected.Fig8SHA256)
			}
			p.layer.set("experiments.alloc_gb", float64(after.TotalAlloc-before.TotalAlloc)/1e9, "GB")
			p.layer.set("experiments.gc_cycles", float64(after.NumGC-before.NumGC), "count")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.cost = median(walls)
	if m == timed {
		p.e2e.set("rate_per_s", fig8Epochs/median(walls), "1/s")
		p.e2e.set("p50_ms", 1e3*median(walls), "ms")
		p.e2e.set("p99_ms", 1e3*percentile(walls, 0.99), "ms")
	}
	return p, nil
}

// prepareZoo builds and prepares every Fig. 8 workload once.
func prepareZoo() error {
	sys := core.DefaultSystem()
	for _, m := range dnn.AllWorkloads() {
		if _, err := sys.Prepare(m); err != nil {
			return err
		}
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
