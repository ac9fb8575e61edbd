package mlp

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNetworkJSONRoundTrip(t *testing.T) {
	t.Parallel()
	n := New(Config{InputDim: 4, Hidden: []int{16, 8}, Heads: []int{6, 6}, Seed: 42})
	// Train a little so the parameters are non-trivial.
	examples := []Example{
		{Input: []float64{0.1, 0.2, 0.3, 0.4}, Targets: []int{2, 3}},
		{Input: []float64{0.9, 0.8, 0.7, 0.6}, Targets: []int{5, 0}},
	}
	n.Train(examples, TrainOptions{Epochs: 20})

	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumParams() != n.NumParams() {
		t.Fatalf("param count changed: %d vs %d", back.NumParams(), n.NumParams())
	}
	pOrig, pBack := n.Parameters(), back.Parameters()
	for i := range pOrig {
		if *pOrig[i] != *pBack[i] {
			t.Fatalf("parameter %d changed across round trip", i)
		}
	}
	// Behaviour identical.
	in := []float64{0.5, -0.25, 1, 0}
	a, b := n.Predict(in), back.Predict(in)
	for h := range a {
		for k := range a[h] {
			if a[h][k] != b[h][k] {
				t.Fatalf("prediction changed at head %d class %d", h, k)
			}
		}
	}
}

func TestNetworkJSONNoHidden(t *testing.T) {
	t.Parallel()
	n := New(Config{InputDim: 3, Heads: []int{4}, Seed: 7})
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Classify([]float64{1, 2, 3})[0] != n.Classify([]float64{1, 2, 3})[0] {
		t.Fatal("linear network round trip changed behaviour")
	}
}

// shapeOverflow is a one-head network whose head declares 4×2⁶² weights
// and holds none.
const shapeOverflow = `{"config":{"InputDim":4611686018427387904,"Heads":[4]},` +
	`"heads":[{"rows":4,"cols":4611686018427387904,"weights":[],"biases":[0,0,0,0]}]}`

func TestNetworkUnmarshalRejectsCorruption(t *testing.T) {
	t.Parallel()
	n := New(Config{InputDim: 4, Hidden: []int{8}, Heads: []int{6, 6}, Seed: 1})
	good, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := []struct {
		name string
		mod  func(string) string
	}{
		{"truncated weights", func(s string) string {
			return strings.Replace(s, `"weights":[`, `"weights":[1e9,`, 1) // length mismatch
		}},
		{"bad config", func(s string) string {
			return strings.Replace(s, `"InputDim":4`, `"InputDim":0`, 1)
		}},
		{"not json", func(string) string { return "{" }},
		{"shape overflows int", func(string) string { return shapeOverflow }},
	}
	for _, c := range corruptions {
		var back Network
		if err := json.Unmarshal([]byte(c.mod(string(good))), &back); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestNetworkUnmarshalShapeMismatch(t *testing.T) {
	t.Parallel()
	// A head whose rows disagree with the config must be rejected.
	a := New(Config{InputDim: 4, Hidden: []int{8}, Heads: []int{6, 6}, Seed: 1})
	data, _ := json.Marshal(a)
	tampered := strings.Replace(string(data), `"Heads":[6,6]`, `"Heads":[6,5]`, 1)
	var back Network
	if err := json.Unmarshal([]byte(tampered), &back); err == nil {
		t.Fatal("head-count mismatch accepted")
	}
}
