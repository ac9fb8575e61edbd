package core

import (
	"odin/internal/ou"
	"odin/internal/search"
)

// RunReport is the outcome of one inference run (one pass over all layers).
type RunReport struct {
	Time float64 // simulation time of the run (s)
	Age  float64 // device age at the run (s since last programming + t₀)

	Sizes []ou.Size // OU size used per layer

	// Inference costs for this run (Eq. 1/2 + peripherals + NoC).
	Energy  float64
	Latency float64

	// Reprogramming triggered by this run (cost booked on this run). A
	// baseline run can carry several passes when multiple violation
	// deadlines elapsed since the previous decision epoch.
	Reprogrammed     bool
	ReprogramPasses  int
	ReprogramEnergy  float64
	ReprogramLatency float64

	// Online-learning bookkeeping (Odin only).
	Disagreements     int // layers where policy ≠ searched best
	PolicyUpdated     bool
	SearchEvaluations int
	// Strategies names the line-6 strategies the layers ran ("rb", "ex",
	// "degraded", ...), each once, comma-joined in first-use order.
	Strategies string

	// Estimated inference accuracy of this run.
	Accuracy float64
}

// EDP returns this run's inference energy-delay product.
func (r RunReport) EDP() float64 { return r.Energy * r.Latency }

// TotalEnergy returns inference + reprogramming energy of the run.
func (r RunReport) TotalEnergy() float64 { return r.Energy + r.ReprogramEnergy }

// TotalLatency returns inference + reprogramming latency of the run.
func (r RunReport) TotalLatency() float64 { return r.Latency + r.ReprogramLatency }

// Runner is anything that can execute inference runs over simulated time:
// the Odin controller or a homogeneous baseline.
type Runner interface {
	// RunInference executes one inference run at simulation time t (seconds
	// since the workload started; t=0 is the initial programming instant).
	RunInference(t float64) RunReport
	// Reprograms returns the number of reprogramming passes so far
	// (excluding the initial programming).
	Reprograms() int
}

// inferenceCost accumulates the full inference energy/latency of one run
// given per-layer sizes: the Eq. 1/2 analytical models per layer plus
// peripheral energy and the workload's NoC cost. Layers execute in a
// pipeline across PEs, so layer latencies add (one image traverses all
// layers sequentially).
func (s System) inferenceCost(wl *Workload, sizes []ou.Size) (energy, latency float64) {
	cm := s.Arch.CostModel()
	for j, size := range sizes {
		cost := cm.Evaluate(wl.Works[j], size)
		energy += cost.Energy
		energy += s.Arch.PeripheralEnergy(&wl.Model.Layers[j], wl.Mappings[j], cost.Cycles)
		latency += cost.Latency
	}
	energy += wl.NoCEnergy
	latency += wl.NoCLatency
	return energy, latency
}

// reprogramCost returns the energy/latency of rewriting the workload's
// non-zero cells. Energy scales with the cell count. Latency is the
// row-sequential write time of one tile's crossbar set: tiles rewrite in
// parallel, but the 96 crossbars of a tile share one program-and-verify
// unit — this is what makes frequent reprogramming the dominant latency
// overhead for coarse OUs (§V.C).
func (s System) reprogramCost(wl *Workload) (energy, latency float64) {
	energy = s.Device.ReprogramEnergy(wl.CellsNonZero)
	cellsPerTile := s.Arch.CrossbarSize * s.Arch.CrossbarSize * s.Arch.CrossbarsPerTile
	latency = s.Device.ReprogramLatency(cellsPerTile, s.Arch.CrossbarSize)
	return energy, latency
}

// LayerObjective builds the search objective scoring OU sizes for layer j
// of the workload at device age `age` — the quantity Algorithm 1's line 6
// optimises. Exported for the experiment drivers and design-space tooling.
func LayerObjective(s System, wl *Workload, j int, age float64) search.Objective {
	return s.objective(wl, j, s.Acc.Sens.Weight(j, wl.Layers()), s.Acc.Amplification(age))
}

// OptimalSizes returns the constrained EDP-optimal OU size of every layer
// of the workload at device age age, found by exhaustive search: the
// optimum Odin's online loop converges to. A layer with no feasible size
// gets the smallest grid size, the size the controller runs it degraded at.
func (s System) OptimalSizes(wl *Workload, age float64) []ou.Size {
	grid := s.Grid()
	sizes := make([]ou.Size, wl.Layers())
	for j := range sizes {
		res := search.Exhaustive(grid, LayerObjective(s, wl, j, age))
		if res.Found {
			sizes[j] = res.Best
		} else {
			sizes[j] = grid.SizeAt(0, 0)
		}
	}
	return sizes
}

// objective builds the per-layer search objective for layer j, whose
// sensitivity weight is w = Acc.Sens.Weight(j, wl.Layers()), at drift
// amplification amp = Acc.Amplification(age). It is the one constructor of
// search.Objective: callers that hold w and A fixed across many decisions
// (a controller's weight table, a run's age) pass them in.
func (s System) objective(wl *Workload, j int, w, amp float64) search.Objective {
	return search.Objective{
		Cost:  s.Arch.CostModel(),
		Work:  wl.Works[j],
		Acc:   s.Acc,
		Layer: j,
		Of:    wl.Layers(),
		W:     w,
		Amp:   amp,
	}
}
