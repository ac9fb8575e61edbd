// Package core implements Odin itself (paper Algorithm 1): the online
// learning controller that, on every inference run and for every neural
// layer, predicts an OU size with the current policy, refines it with a
// resource-bounded search over the analytical energy/latency/non-ideality
// models, reprograms the ReRAM arrays when no OU size can meet the
// non-ideality threshold, and learns from every disagreement between policy
// and search.
//
// The package also provides the homogeneous-OU baselines the paper compares
// against (16×16, 16×4, 9×8, 8×4 from prior work), the offline policy
// bootstrap from (N−1) known DNNs, and the time-horizon simulation driver
// that produces the reprogramming counts and energy/latency/EDP totals of
// §V.C–§V.D.
package core

import (
	"fmt"

	"odin/internal/accuracy"
	"odin/internal/dnn"
	"odin/internal/noc"
	"odin/internal/ou"
	"odin/internal/pim"
	"odin/internal/policy"
	"odin/internal/reram"
	"odin/internal/sparsity"
)

// System bundles the full simulated platform: PIM architecture, ReRAM
// device, mesh NoC, pruning configuration and the accuracy surrogate.
type System struct {
	Arch     pim.ArchConfig
	Device   reram.DeviceParams
	Mesh     noc.Mesh
	Sparsity sparsity.Config
	Acc      accuracy.Model
}

// DefaultSystem returns the paper's evaluation platform (Tables I and II).
func DefaultSystem() System {
	device := reram.DefaultDeviceParams()
	return System{
		Arch:     pim.DefaultArch(),
		Device:   device,
		Mesh:     noc.DefaultMesh(),
		Sparsity: sparsity.DefaultConfig(),
		Acc:      accuracy.Default(device),
	}
}

// WithCrossbarSize returns a copy of the system scaled to a different
// crossbar dimension (the Fig. 9 sensitivity study: 128², 64², 32²).
func (s System) WithCrossbarSize(size int) System {
	s.Arch.CrossbarSize = size
	return s
}

// Validate checks every sub-model.
func (s System) Validate() error {
	if err := s.Arch.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := s.Device.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := s.Mesh.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := s.Sparsity.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := s.Acc.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Grid returns the OU search space of the platform's crossbars.
func (s System) Grid() ou.Grid { return s.Arch.Grid() }

// Workload is a DNN prepared for simulation on a System: pruned, mapped to
// crossbars, with per-layer OU workloads and the (OU-size independent) NoC
// traffic cost of moving activations between consecutive layers' PEs.
type Workload struct {
	Model    *dnn.Model
	Mappings []pim.LayerMapping
	Works    []ou.LayerWork

	// NoCEnergy and NoCLatency are the per-inference-run activation
	// movement costs (constant w.r.t. OU size).
	NoCEnergy  float64
	NoCLatency float64

	// CellsNonZero is the reprogramming cost basis: cells holding non-zero
	// weights across the whole model.
	CellsNonZero int
}

// Prepare prunes (if the model is not yet pruned) and maps a model onto the
// system.
func (s System) Prepare(m *dnn.Model) (*Workload, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.MeanWeightSparsity() == 0 {
		if err := sparsity.Prune(m, s.Sparsity); err != nil {
			return nil, err
		}
	}
	wl := &Workload{Model: m}
	mapping := s.Arch.MapModel(m)
	wl.Mappings = mapping.Layers
	wl.Works = make([]ou.LayerWork, len(m.Layers))
	for j := range m.Layers {
		wl.Works[j] = wl.Mappings[j].Work(sparsity.ProfileFor(m.Layers[j], s.Sparsity))
		wl.CellsNonZero += wl.Mappings[j].CellsNonZero
	}
	cost := s.Mesh.Route(s.layerFlows(m))
	wl.NoCEnergy = cost.Energy
	wl.NoCLatency = cost.Latency
	return wl, nil
}

// LayerTraffic exposes the inter-layer activation flows the NoC carries
// for one inference of the model (used by the NoC validation experiment).
func LayerTraffic(s System, m *dnn.Model) []noc.Flow {
	return s.layerFlows(m)
}

// layerFlows builds the inter-layer activation flows: layer j's output
// feature map travels from its PE to layer j+1's PE (round-robin layer→PE
// placement).
func (s System) layerFlows(m *dnn.Model) []noc.Flow {
	pe := func(layer int) int { return layer % s.Mesh.Nodes() }
	flows := make([]noc.Flow, 0, len(m.Layers)-1)
	for j := 0; j+1 < len(m.Layers); j++ {
		l := m.Layers[j]
		bits := l.OutH() * l.OutW() * l.OutChannels * s.Arch.InputBits
		flows = append(flows, noc.Flow{Src: pe(j), Dst: pe(j + 1), Bits: bits})
	}
	return flows
}

// Layers returns the layer count.
func (w *Workload) Layers() int { return len(w.Works) }

// FeaturesAt returns the policy features Φ of layer j at device age t.
func (w *Workload) FeaturesAt(j int, age float64) policy.Features {
	l := &w.Model.Layers[j]
	return policy.Features{
		LayerIndex: j,
		LayerCount: len(w.Model.Layers),
		Sparsity:   l.WeightSparsity,
		KernelSize: l.KernelH,
		Time:       age,
	}
}
