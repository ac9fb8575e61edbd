package mlp

import (
	"fmt"
	"math"
	"testing"

	"odin/internal/check"
)

// trainCase is one generated permutation-invariance scenario: a tiny
// dataset plus a permutation of it.
type trainCase struct {
	Inputs  [][]float64
	Targets [][]int
	Perm    []int
	Epochs  int
}

const (
	propInputDim = 3
	propClasses  = 3
)

func genTrainCase() check.Gen[trainCase] {
	return check.Gen[trainCase]{
		Generate: func(t *check.T) trainCase {
			n := 2 + t.Rng.Intn(10)
			tc := trainCase{
				Inputs:  make([][]float64, n),
				Targets: make([][]int, n),
				Perm:    t.Rng.Perm(n),
				Epochs:  1 + t.Rng.Intn(5),
			}
			for i := range tc.Inputs {
				in := make([]float64, propInputDim)
				for d := range in {
					in[d] = t.Rng.Float64()*2 - 1
				}
				tc.Inputs[i] = in
				tc.Targets[i] = []int{t.Rng.Intn(propClasses)}
			}
			return tc
		},
		// Dropping examples would invalidate Perm; shrink only the epoch
		// count, which is what controls divergence amplification.
		Shrink: func(tc trainCase) []trainCase {
			var out []trainCase
			for _, v := range check.ShrinkInt(tc.Epochs, 1) {
				m := tc
				m.Epochs = v
				out = append(out, m)
			}
			return out
		},
	}
}

func (tc trainCase) examples(order []int) []Example {
	out := make([]Example, len(tc.Inputs))
	for i, src := range order {
		out[i] = Example{Input: tc.Inputs[src], Targets: tc.Targets[src]}
	}
	return out
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// maxParamRelDiff returns the largest relative parameter difference between
// two identically shaped networks.
func maxParamRelDiff(a, b *Network) float64 {
	pa, pb := a.Parameters(), b.Parameters()
	worst := 0.0
	for i := range pa {
		va, vb := *pa[i], *pb[i]
		scale := math.Max(math.Max(math.Abs(va), math.Abs(vb)), 1e-12)
		if d := math.Abs(va-vb) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// TestPropTrainPermutationInvariant pins that full-batch training on a
// fixed dataset is invariant under seeded dataset shuffles: the gradient is
// a sum over examples, so reordering them changes only float summation
// order. Divergence beyond accumulation noise would mean training secretly
// depends on example order (e.g. an unseeded shuffle or per-example
// updates leaking into the full-batch path).
func TestPropTrainPermutationInvariant(t *testing.T) {
	t.Parallel()
	cfg := Config{InputDim: propInputDim, Hidden: []int{4}, Heads: []int{propClasses}, Seed: 11}
	opts := func(epochs int) TrainOptions {
		return TrainOptions{Epochs: epochs, Seed: 5}
	}
	check.RunConfig(t, check.Config{Trials: 40}, genTrainCase(), func(tc trainCase) error {
		n := len(tc.Inputs)
		straight := tc.examples(identity(n))
		permuted := tc.examples(tc.Perm)

		na, nb := New(cfg), New(cfg)
		if d := maxParamRelDiff(na, nb); d > 0 {
			return fmt.Errorf("identical configs initialised differently (max rel diff %g)", d)
		}
		lossA, lossB := na.Loss(straight), nb.Loss(permuted)
		if math.Abs(lossA-lossB) > 1e-12*math.Max(lossA, 1) {
			return fmt.Errorf("loss not permutation-invariant before training: %g vs %g", lossA, lossB)
		}
		na.Train(straight, opts(tc.Epochs))
		nb.Train(permuted, opts(tc.Epochs))
		if d := maxParamRelDiff(na, nb); d > 1e-8 {
			return fmt.Errorf("full-batch training diverged under a dataset permutation: max rel param diff %g (n=%d, epochs=%d)",
				d, n, tc.Epochs)
		}
		return nil
	})
}

// TestPropLossNonnegativeAndFiniteAfterTraining pins basic sanity of the
// training loop on arbitrary tiny datasets: cross-entropy stays
// non-negative and finite, and parameters stay finite.
func TestPropLossNonnegativeAndFiniteAfterTraining(t *testing.T) {
	t.Parallel()
	cfg := Config{InputDim: propInputDim, Hidden: []int{4}, Heads: []int{propClasses}, Seed: 3}
	check.RunConfig(t, check.Config{Trials: 40}, genTrainCase(), func(tc trainCase) error {
		ex := tc.examples(identity(len(tc.Inputs)))
		n := New(cfg)
		stats := n.Train(ex, TrainOptions{Epochs: tc.Epochs, Seed: 2})
		if stats.FinalLoss < 0 || math.IsNaN(stats.FinalLoss) || math.IsInf(stats.FinalLoss, 0) {
			return fmt.Errorf("final loss %g not a finite non-negative value", stats.FinalLoss)
		}
		for i, p := range n.Parameters() {
			if math.IsNaN(*p) || math.IsInf(*p, 0) {
				return fmt.Errorf("parameter %d diverged to %g", i, *p)
			}
		}
		return nil
	})
}
