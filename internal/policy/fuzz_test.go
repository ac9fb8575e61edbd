package policy

import (
	"encoding/json"
	"testing"

	"odin/internal/ou"
)

// fuzzFeatures are valid inputs spanning the feature ranges: a one-layer
// network on a fresh device, a mid-network layer, and the deepest layer
// far past the paper's horizon.
var fuzzFeatures = []Features{
	{LayerIndex: 0, LayerCount: 1, Sparsity: 0, KernelSize: 1, Time: 0},
	{LayerIndex: 4, LayerCount: 11, Sparsity: 0.6, KernelSize: 3, Time: 1e4},
	{LayerIndex: 129, LayerCount: 130, Sparsity: 0.95, KernelSize: 7, Time: 1e12},
}

// FuzzPolicyUnmarshal pins the policy deployment format on arbitrary
// bytes: decoding either fails, or yields a policy that predicts on valid
// features without panicking and whose own encoding decodes back to a
// policy predicting the same sizes. Its seed inputs are the encodings of
// three fresh policies and the files in testdata/fuzz/FuzzPolicyUnmarshal.
func FuzzPolicyUnmarshal(f *testing.F) {
	for _, cfg := range []Config{
		{Grid: ou.DefaultGrid(128), Seed: 1},
		{Grid: ou.DefaultGrid(16), Hidden: []int{7, 5}, Seed: 2},
		{Grid: ou.Grid{MinLevel: 0, MaxLevel: 0}, Hidden: []int{}, Seed: 3},
	} {
		data, err := json.Marshal(New(cfg))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Policy
		if err := json.Unmarshal(data, &p); err != nil {
			return
		}
		ws := p.NewWorkspace()
		want := make([]ou.Size, len(fuzzFeatures))
		for i, feat := range fuzzFeatures {
			want[i] = p.PredictWith(ws, feat)
		}
		enc, err := json.Marshal(&p)
		if err != nil {
			t.Fatalf("re-encoding a decoded policy: %v", err)
		}
		var back Policy
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("decoding the policy's own encoding: %v\n%s", err, enc)
		}
		bws := back.NewWorkspace()
		for i, feat := range fuzzFeatures {
			if got := back.PredictWith(bws, feat); got != want[i] {
				t.Fatalf("features %+v: re-decoded policy predicts %v, decoded one %v", feat, got, want[i])
			}
		}
	})
}
