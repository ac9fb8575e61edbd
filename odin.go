// Package odin is a from-scratch Go reproduction of "Odin: Learning to
// Optimize Operation Unit Configuration for Energy-efficient DNN
// Inferencing" (Narang, Doppa, Pande — DATE 2025).
//
// ReRAM crossbar accelerators compute DNN matrix-vector products by
// activating an R×C sub-array — an Operation Unit (OU) — per cycle. Large
// OUs are fast and energy-efficient but amplify IR-drop and conductance
// drift non-idealities; small OUs are accurate but slow. Odin learns, per
// neural layer and online, which OU size to use: a tiny two-headed MLP
// policy predicts (R, C) from layer features and elapsed time, a
// resource-bounded search over analytical energy/latency/non-ideality
// models refines the prediction, disagreements become training data, and
// the device is reprogrammed only when no OU size can meet the
// non-ideality threshold.
//
// The package is a facade over the full simulation stack in internal/:
// ReRAM device physics and crossbars (internal/reram), OU cost models
// (internal/ou), a layer-accurate DNN zoo (internal/dnn), crossbar-aware
// pruning (internal/sparsity), the PIM tile/PE architecture
// (internal/pim), a mesh NoC (internal/noc), the accuracy surrogate
// (internal/accuracy), the OU searches (internal/search), the MLP policy
// (internal/policy, internal/mlp), and the Odin controller with its
// baselines (internal/core). Every table and figure of the paper's
// evaluation regenerates through internal/experiments and the cmd/odinsim
// CLI.
//
// # Quick start
//
//	sys := odin.NewSystem()
//	model := odin.MustModel("VGG11")
//
//	// Offline: bootstrap the policy from every non-VGG workload.
//	known := odin.LeaveOut(odin.Models(), "VGG")
//	pol, _, err := odin.BootstrapPolicy(sys, known, odin.DefaultBootstrapConfig())
//	if err != nil { ... }
//
//	// Online: adapt to the unseen DNN over a 10⁸-second horizon.
//	wl, err := sys.Prepare(model)
//	ctrl, err := odin.NewController(sys, wl, pol, odin.DefaultControllerOptions())
//	summary := odin.SimulateHorizon(ctrl, odin.HorizonConfig{})
//	fmt.Println(summary)
//
// All simulation is deterministic: there is no wall-clock or global
// randomness anywhere in the stack.
package odin

import (
	"encoding/json"
	"fmt"
	"io"

	"odin/internal/accuracy"
	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/mat"
	"odin/internal/mlp"
	"odin/internal/noc"
	"odin/internal/ou"
	"odin/internal/pim"
	"odin/internal/policy"
	"odin/internal/reram"
	"odin/internal/rng"
	"odin/internal/sparsity"
)

// Core platform and controller types.
type (
	// System bundles the simulated platform: PIM architecture (Table I),
	// ReRAM device (Table II), mesh NoC, pruning configuration, and the
	// accuracy surrogate.
	System = core.System
	// Workload is a DNN model prepared for simulation: pruned and mapped
	// onto the platform's crossbars.
	Workload = core.Workload
	// Controller is the Odin online-learning loop (paper Algorithm 1).
	Controller = core.Controller
	// ControllerOptions tunes the search budget, buffer size, and update
	// epochs of the online loop.
	ControllerOptions = core.ControllerOptions
	// Baseline runs a workload at a fixed, homogeneous OU size (the prior
	// art Odin is compared against).
	Baseline = core.Baseline
	// Runner is anything that can execute inference runs over simulated
	// time: a Controller or a Baseline.
	Runner = core.Runner
	// RunReport is the outcome of one inference run.
	RunReport = core.RunReport
	// HorizonConfig drives a long-term simulation (t₀ → 10⁸ s by default).
	HorizonConfig = core.HorizonConfig
	// HorizonSummary aggregates a horizon simulation: energy, latency,
	// EDP, reprogramming counts, and accuracy statistics.
	HorizonSummary = core.HorizonSummary
	// BootstrapConfig controls offline policy construction from known
	// DNNs (paper §V.A: up to 500 examples).
	BootstrapConfig = core.BootstrapConfig
)

// Decision-stack types.
type (
	// Size is an OU configuration: R activated rows × C activated columns.
	Size = ou.Size
	// Grid is the discrete OU search space (powers of two, 4..crossbar).
	Grid = ou.Grid
	// Policy is the trainable OU-configuration policy π(Φ, Θ).
	Policy = policy.Policy
	// PolicyConfig parameterises a fresh policy.
	PolicyConfig = policy.Config
	// Features is the policy input Φ: layer id, sparsity, kernel size,
	// elapsed inference time.
	Features = policy.Features
	// PolicyExample is one supervised training pair for the policy.
	PolicyExample = policy.Example
	// TrainOptions configures policy training (epochs, learning rate,
	// shuffling seed).
	TrainOptions = mlp.TrainOptions
	// Model is a DNN workload description (ordered weight layers bound to
	// a dataset).
	Model = dnn.Model
	// Layer is one weight layer of a DNN.
	Layer = dnn.Layer
	// Dataset describes an image-classification dataset.
	Dataset = dnn.Dataset
)

// Device and architecture types, exposed for custom platform studies.
type (
	// DeviceParams are the ReRAM cell/crossbar electrical parameters.
	DeviceParams = reram.DeviceParams
	// Crossbar is a programmable ReRAM array with a reference non-ideal
	// MVM (drift + IR-drop + optional read noise).
	Crossbar = reram.Crossbar
	// ArchConfig describes the PIM platform (PEs, tiles, crossbars, ADCs).
	ArchConfig = pim.ArchConfig
	// Mesh is the PE-interconnect NoC model.
	Mesh = noc.Mesh
	// AccuracyModel is the non-ideality → accuracy surrogate.
	AccuracyModel = accuracy.Model
	// SparsityConfig parameterises the crossbar-aware pruning simulator.
	SparsityConfig = sparsity.Config
)

// Device-study helpers.
type (
	// Matrix is a row-major dense matrix (weights for crossbar programming).
	Matrix = mat.Dense
	// CrossbarMVMOptions controls the reference non-ideal MVM.
	CrossbarMVMOptions = reram.MVMOptions
)

// MVMOptions builds reference-MVM options activating an R×C OU at the
// given simulation time.
func MVMOptions(s Size, simTime float64) CrossbarMVMOptions {
	return CrossbarMVMOptions{OURows: s.R, OUCols: s.C, SimTime: simTime}
}

// RandomWeights returns a rows×cols matrix of standard-normal weights drawn
// deterministically from the seed label.
func RandomWeights(rows, cols int, seed string) *Matrix {
	src := rng.NewFromString(seed)
	w := mat.NewDense(rows, cols)
	for i := range w.Data {
		w.Data[i] = src.NormFloat64()
	}
	return w
}

// NewSystem returns the paper's evaluation platform: 36 PEs on a 6×6 mesh,
// 4 tiles per PE, 96 crossbars of 128×128 ReRAM cells per tile (Tables I
// and II).
func NewSystem() System { return core.DefaultSystem() }

// NewCrossbar allocates a programmable ReRAM crossbar for direct device
// studies (see examples/crossbar_demo).
func NewCrossbar(size int, params DeviceParams) *Crossbar {
	return reram.NewCrossbar(size, params)
}

// DefaultDeviceParams returns the Table II ReRAM parameters.
func DefaultDeviceParams() DeviceParams { return reram.DefaultDeviceParams() }

// Models returns the nine workload/dataset pairs of the paper's evaluation:
// ResNet18/VGG11/GoogLeNet/DenseNet121/ViT on CIFAR-10, ResNet34/VGG16 on
// CIFAR-100, ResNet50/VGG19 on TinyImageNet.
func Models() []*Model { return dnn.AllWorkloads() }

// ModelByName returns a fresh instance of the named zoo model.
func ModelByName(name string) (*Model, error) { return dnn.ByName(name) }

// MustModel is ModelByName for known-good names; it panics on error.
func MustModel(name string) *Model {
	m, err := dnn.ByName(name)
	if err != nil {
		panic(fmt.Sprintf("odin: %v", err))
	}
	return m
}

// LeaveOut filters a model list down to everything outside the named
// family — the paper's unseen-DNN evaluation protocol.
func LeaveOut(models []*Model, family string) []*Model {
	return core.LeaveOut(models, family)
}

// NewPolicy creates an untrained OU-configuration policy for a system.
func NewPolicy(sys System, seed uint64) *Policy {
	return policy.New(policy.Config{Grid: sys.Grid(), Seed: seed})
}

// BootstrapPolicy builds and trains the offline OU policy from known DNNs.
// It returns the policy and the number of training examples used.
func BootstrapPolicy(sys System, known []*Model, cfg BootstrapConfig) (*Policy, int, error) {
	return core.BootstrapPolicy(sys, known, cfg)
}

// DefaultBootstrapConfig returns the paper's offline-training settings
// (≤ 500 examples across a drift-time sweep).
func DefaultBootstrapConfig() BootstrapConfig { return core.DefaultBootstrapConfig() }

// SavePolicy writes a policy (grid + trained parameters) as JSON — the
// deployment format for design-time-trained offline policies.
func SavePolicy(w io.Writer, pol *Policy) error {
	data, err := json.Marshal(pol)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// LoadPolicy reads a policy previously written by SavePolicy.
func LoadPolicy(r io.Reader) (*Policy, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	pol := new(Policy)
	if err := json.Unmarshal(data, pol); err != nil {
		return nil, err
	}
	return pol, nil
}

// NewController creates the Odin online-learning controller for a prepared
// workload. The policy is adapted in place.
func NewController(sys System, wl *Workload, pol *Policy, opts ControllerOptions) (*Controller, error) {
	return core.NewController(sys, wl, pol, opts)
}

// DefaultControllerOptions returns the paper's online-loop settings
// (RB search with K=3, 50-example buffer, 100-epoch updates).
func DefaultControllerOptions() ControllerOptions { return core.DefaultControllerOptions() }

// NewBaseline creates a fixed homogeneous-OU runner (e.g. the 16×16, 16×4,
// 9×8, and 8×4 configurations from prior work).
func NewBaseline(sys System, wl *Workload, size Size) (*Baseline, error) {
	return core.NewBaseline(sys, wl, size)
}

// BaselineSizes returns the four homogeneous configurations the paper
// compares against.
func BaselineSizes() []Size { return core.StandardBaselineSizes() }

// SimulateHorizon executes a long-term simulation of the runner and
// aggregates energy, latency, EDP, reprogramming, and accuracy statistics.
func SimulateHorizon(r Runner, cfg HorizonConfig) HorizonSummary {
	return core.SimulateHorizon(r, cfg)
}
