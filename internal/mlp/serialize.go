package mlp

import (
	"encoding/json"
	"fmt"
	"math"

	"odin/internal/mat"
)

// networkJSON is the stable on-disk representation of a Network.
type networkJSON struct {
	Config Config       `json:"config"`
	Trunk  []linearJSON `json:"trunk"`
	Heads  []linearJSON `json:"heads"`
}

type linearJSON struct {
	Rows    int       `json:"rows"`
	Cols    int       `json:"cols"`
	Weights []float64 `json:"weights"`
	Biases  []float64 `json:"biases"`
}

func (l *linear) toJSON() linearJSON {
	weights := make([]float64, len(l.W.Data))
	copy(weights, l.W.Data)
	biases := make([]float64, len(l.B))
	copy(biases, l.B)
	return linearJSON{Rows: l.W.Rows, Cols: l.W.Cols, Weights: weights, Biases: biases}
}

func (lj linearJSON) toLinear() (*linear, error) {
	if lj.Rows < 1 || lj.Cols < 1 {
		return nil, fmt.Errorf("mlp: invalid layer shape %dx%d", lj.Rows, lj.Cols)
	}
	// Rows·Cols must not wrap: 4×2⁶², say, would match zero weights.
	if lj.Rows > math.MaxInt/lj.Cols {
		return nil, fmt.Errorf("mlp: layer shape %dx%d overflows int", lj.Rows, lj.Cols)
	}
	if len(lj.Weights) != lj.Rows*lj.Cols {
		return nil, fmt.Errorf("mlp: layer has %d weights, want %d", len(lj.Weights), lj.Rows*lj.Cols)
	}
	if len(lj.Biases) != lj.Rows {
		return nil, fmt.Errorf("mlp: layer has %d biases, want %d", len(lj.Biases), lj.Rows)
	}
	l := &linear{W: mat.NewDense(lj.Rows, lj.Cols), B: make([]float64, lj.Rows)}
	copy(l.W.Data, lj.Weights)
	copy(l.B, lj.Biases)
	return l, nil
}

// MarshalJSON encodes the network — configuration and all parameters — as
// JSON. The encoding is stable across versions of this package as long as
// the architecture (trunk widths, head sizes) is representable.
func (n *Network) MarshalJSON() ([]byte, error) {
	out := networkJSON{Config: n.cfg}
	for _, l := range n.trunk {
		out.Trunk = append(out.Trunk, l.toJSON())
	}
	for _, l := range n.heads {
		out.Heads = append(out.Heads, l.toJSON())
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a network previously produced by MarshalJSON,
// validating configuration/parameter consistency.
func (n *Network) UnmarshalJSON(data []byte) error {
	var in networkJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("mlp: decoding network: %w", err)
	}
	if err := in.Config.validate(); err != nil {
		return err
	}
	if len(in.Trunk) != len(in.Config.Hidden) {
		return fmt.Errorf("mlp: %d trunk layers for %d hidden widths", len(in.Trunk), len(in.Config.Hidden))
	}
	if len(in.Heads) != len(in.Config.Heads) {
		return fmt.Errorf("mlp: %d head layers for %d heads", len(in.Heads), len(in.Config.Heads))
	}
	rebuilt := Network{cfg: in.Config}
	prev := in.Config.InputDim
	for i, lj := range in.Trunk {
		if lj.Rows != in.Config.Hidden[i] || lj.Cols != prev {
			return fmt.Errorf("mlp: trunk layer %d shape %dx%d inconsistent with config", i, lj.Rows, lj.Cols)
		}
		l, err := lj.toLinear()
		if err != nil {
			return err
		}
		rebuilt.trunk = append(rebuilt.trunk, l)
		prev = lj.Rows
	}
	for i, lj := range in.Heads {
		if lj.Rows != in.Config.Heads[i] || lj.Cols != prev {
			return fmt.Errorf("mlp: head %d shape %dx%d inconsistent with config", i, lj.Rows, lj.Cols)
		}
		l, err := lj.toLinear()
		if err != nil {
			return err
		}
		rebuilt.heads = append(rebuilt.heads, l)
	}
	*n = rebuilt
	return nil
}
