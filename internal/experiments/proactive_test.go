package experiments

import (
	"bytes"
	"strings"
	"testing"

	"odin/internal/core"
)

func TestProactiveTriggerBehaviour(t *testing.T) {
	t.Parallel()
	base := cachedBase()
	res, err := Proactive(core.DefaultSystem(), base, []float64{1.2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("expected paper + 2 variants, got %d", len(res.Rows))
	}
	paper, aggressive, loose := res.Rows[0], res.Rows[1], res.Rows[2]
	// An aggressive latency trigger fires and reprograms far more often.
	if aggressive.Reprograms <= paper.Reprograms {
		t.Errorf("aggressive trigger did not fire: %d vs %d reprograms",
			aggressive.Reprograms, paper.Reprograms)
	}
	// A loose trigger behaves like the paper's controller.
	if loose.Reprograms != paper.Reprograms {
		t.Errorf("loose trigger changed behaviour: %d vs %d", loose.Reprograms, paper.Reprograms)
	}
	// The negative result this extension documents: thrashing writes make
	// the aggressive variant strictly worse on EDP.
	if aggressive.EDP <= paper.EDP {
		t.Errorf("aggressive variant unexpectedly improved EDP: %v vs %v",
			aggressive.EDP, paper.EDP)
	}
	// Accuracy is safe under every variant (η still governs selection).
	for _, row := range res.Rows {
		if row.MinAcc < 0.9 {
			t.Errorf("%s accuracy dropped to %v", row.Name, row.MinAcc)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "best variant") {
		t.Fatal("render missing summary line")
	}
	requireLookups(t, "proactive", base)
}

func TestConfidenceRoutingMonotone(t *testing.T) {
	t.Parallel()
	base := cachedBase()
	res, err := Confidence(core.DefaultSystem(), base, []float64{0.3, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected RB + 2 hybrids + EX, got %d", len(res.Rows))
	}
	rb, loose, tight, ex := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]
	// Comparator work is monotone in the routing threshold.
	if !(rb.EvalsPerLayer <= loose.EvalsPerLayer &&
		loose.EvalsPerLayer <= tight.EvalsPerLayer &&
		tight.EvalsPerLayer <= ex.EvalsPerLayer) {
		t.Errorf("evals not monotone: %v %v %v %v",
			rb.EvalsPerLayer, loose.EvalsPerLayer, tight.EvalsPerLayer, ex.EvalsPerLayer)
	}
	// The finding this extension documents: RB is already near-optimal, so
	// extra comparator work buys essentially nothing (< 3% EDP spread).
	for _, row := range res.Rows[1:] {
		if row.EDP > rb.EDP*1.05 || row.EDP < rb.EDP*0.95 {
			t.Errorf("%s EDP %v strays >5%% from RB's %v", row.Name, row.EDP, rb.EDP)
		}
	}
	requireLookups(t, "confidence", base)
}
