package mlp

import (
	"encoding/json"
	"testing"
)

// FuzzNetworkUnmarshal pins the network decoder on arbitrary bytes:
// decoding either fails, or yields a network whose layers chain from
// InputDim through the hidden widths to the heads, each holding exactly
// rows×cols weights and rows biases, and whose own encoding decodes to
// the same parameters, bit for bit. Its seed inputs are the encodings of
// three fresh networks and the files in testdata/fuzz/FuzzNetworkUnmarshal.
func FuzzNetworkUnmarshal(f *testing.F) {
	for _, cfg := range []Config{
		{InputDim: 4, Hidden: []int{16}, Heads: []int{6, 6}, Seed: 1},
		{InputDim: 3, Hidden: []int{5, 4}, Heads: []int{3, 2, 1}, Seed: 2},
		{InputDim: 2, Heads: []int{1}, Seed: 3},
	} {
		data, err := json.Marshal(New(cfg))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var n Network
		if err := json.Unmarshal(data, &n); err != nil {
			return
		}
		in := n.cfg.InputDim
		for i, l := range n.trunk {
			checkShape(t, "trunk layer", i, l, n.cfg.Hidden[i], in)
			in = n.cfg.Hidden[i]
		}
		for k, l := range n.heads {
			checkShape(t, "head", k, l, n.cfg.Heads[k], in)
		}
		enc, err := json.Marshal(&n)
		if err != nil {
			t.Fatalf("re-encoding a decoded network: %v", err)
		}
		var back Network
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("decoding the network's own encoding: %v\n%s", err, enc)
		}
		if err := sameBits("re-decoded parameters", paramValues(&back), paramValues(&n)); err != nil {
			t.Fatal(err)
		}
	})
}

// checkShape fails t unless l is a rows×cols layer holding rows·cols
// weights and rows biases, with the weight count checked by division so
// that an overflowing product cannot pass.
func checkShape(t *testing.T, what string, i int, l *linear, rows, cols int) {
	t.Helper()
	w := len(l.W.Data)
	if l.W.Rows != rows || l.W.Cols != cols || w%rows != 0 || w/rows != cols || len(l.B) != rows {
		t.Fatalf("%s %d: %dx%d with %d weights and %d biases, want %dx%d", what, i, l.W.Rows, l.W.Cols, w, len(l.B), rows, cols)
	}
}
