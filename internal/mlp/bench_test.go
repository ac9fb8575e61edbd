package mlp

import (
	"testing"

	"odin/internal/rng"
)

// BenchmarkTrain measures one online policy update on the shape
// Algorithm 1's line 11 trains: the 4→16→(6, 6) network, 100 full-batch
// SGD epochs over a 50-example buffer. In "live" the network is freshly
// initialised and every example reaches the heads through the trunk. In
// "mixed" its trunk biases are shifted down by 1.25, which leaves 2,125
// of the update's 5,000 passes with an all-zero trunk output; the trunk
// moves every step, so no dead verdict outlives its step. In
// "dead-trunk" they are shifted down until every example leaves the trunk
// output all zeros, the state Fig. 8's online policies spend most of
// their training passes in, so only the head biases learn. Each iteration
// of these three starts from the same parameters on the same network, so
// it reuses the network's shuffle schedule, as a controller's successive
// updates do. "bootstrap" is the offline training of
// core.BootstrapPolicy: each iteration trains a new network, which draws
// its own schedule, for 300 epochs on 500 examples.
func BenchmarkTrain(b *testing.B) {
	src := rng.New(3)
	examples := make([]Example, 500)
	for i := range examples {
		examples[i] = Example{
			Input:   []float64{src.Float64(), src.Float64(), src.Float64(), src.Float64()},
			Targets: []int{src.Intn(6), src.Intn(6)},
		}
	}
	cfg := Config{InputDim: 4, Hidden: []int{16}, Heads: []int{6, 6}, Seed: 1}
	for _, bc := range []struct {
		name  string
		shift float64
	}{{"live", 0}, {"mixed", 1.25}, {"dead-trunk", 100}} {
		b.Run(bc.name, func(b *testing.B) {
			n := New(cfg)
			for j := range n.trunk[0].B {
				n.trunk[0].B[j] -= bc.shift
			}
			params := n.Parameters()
			start := paramValues(n)
			b.ReportAllocs()
			for b.Loop() {
				for i, p := range params {
					*p = start[i]
				}
				n.Train(examples[:50], TrainOptions{})
			}
		})
	}
	b.Run("bootstrap", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			New(cfg).Train(examples, TrainOptions{Epochs: 300})
		}
	})
}
