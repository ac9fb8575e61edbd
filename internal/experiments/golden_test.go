package experiments

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"odin/internal/check"
	"odin/internal/core"
	"odin/internal/decache"
)

// runs maps an experiment id to its Run, memoised: runOnce runs each
// experiment at most once per test binary, so a test asserting on an
// experiment's result reuses the run its golden renders. Each run is
// handed a base whose decision cache is its own, kept in bases.
var (
	runsMu sync.Mutex
	runs   = map[string]func() (Result, error){}
	bases  = map[string]core.ControllerOptions{}
)

// runOnce returns the result of experiment id's Run, computed by the first
// caller and shared read-only with every later one.
func runOnce(t *testing.T, id string) Result {
	t.Helper()
	runsMu.Lock()
	run, ok := runs[id]
	if !ok {
		base := cachedBase()
		run = sync.OnceValues(func() (Result, error) {
			e, err := ByID(id)
			if err != nil {
				return nil, err
			}
			return e.Run(base)
		})
		runs[id], bases[id] = run, base
	}
	runsMu.Unlock()
	res, err := run()
	if err != nil {
		t.Fatalf("experiment %s: %v", id, err)
	}
	return res
}

// cachedBase returns the paper's controller options with a decision cache
// the test owns.
func cachedBase() core.ControllerOptions {
	return core.ControllerOptions{Cache: decache.New()}
}

// requireLookups fails t unless some controller looked up base's decision
// cache: a driver that builds its Odin controllers from the base it is
// handed sends their decisions there, and one that builds them from
// anything else leaves the cache untouched.
func requireLookups(t *testing.T, id string, base core.ControllerOptions) {
	t.Helper()
	if c := base.Cache.Counters(); c.DecisionHits+c.DecisionMisses == 0 {
		t.Errorf("%s: no controller looked up the base options' decision cache", id)
	}
}

// TestDriversBuildFromBase checks, on the runs TestGoldenArtifacts renders,
// that these drivers build every Odin controller from the base Run hands
// them. The ablation, proactive and confidence tests check their reduced
// sweeps the same way, which covers all 14 drivers that build Odin
// controllers.
func TestDriversBuildFromBase(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "lifetime", "mobilenet", "fleet"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			runOnce(t, id)
			runsMu.Lock()
			base := bases[id]
			runsMu.Unlock()
			requireLookups(t, id, base)
		})
	}
}

// TestGoldenArtifacts freezes the rendered output of a representative slice
// of the paper's tables and figures: the two static platform tables, one
// layer-wise placement figure (fig3), the online-adaptation snapshots
// (fig5), the headline energy/latency comparison (fig6), the accuracy
// curves (fig7), the cross-workload EDP comparison (fig8), the
// crossbar-size sensitivity study (fig9), the §V-E overhead analysis, the
// endurance and MobileNetV2 extensions (lifetime, mobilenet), the line-6
// optimizer head-to-head (opt-compare, which freezes all four registered
// strategies including the TPE sampler's draws), and the fleet-scale
// routing comparison (fleet, which freezes the serve layer's routing,
// admission, drift steering, and churned-replay checksums at 1024 chips).
// Every numeric path in the repository — mapping, cost models, drift,
// search, policy bootstrap, horizon amortisation, serving — feeds at least
// one of these byte streams, so any unintended change to the physics or
// the controller shows up as a golden diff. Accept intended changes with:
//
//	go test ./internal/experiments -run TestGoldenArtifacts -update
//
// Each frozen experiment is one some test already runs in full, so its
// golden costs no extra run: runOnce shares it (fig9's with
// TestFig9Claims). Most others are tested on reduced sweeps or not at all
// (fig4, the ablations, proactive, confidence), so a golden would add a
// full run to every tier-1 pass; `make smoke` pins every section of
// `odinsim all` against cmd/odinsim/testdata/all.sha256.
func TestGoldenArtifacts(t *testing.T) {
	t.Parallel()
	for _, id := range []string{"tab1", "tab2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "lifetime", "mobilenet", "overhead", "opt-compare", "fleet"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			runOnce(t, id).Render(&buf)
			check.Golden(t, filepath.Join("testdata", id+".golden"), buf.Bytes())
		})
	}
}
