package search

import (
	"math"
	"strconv"

	"odin/internal/ou"
	"odin/internal/rng"
)

// TPE constants: γ is the good-set fraction, boCandidates the number of
// draws from the good density per iteration, boInit the quasi-random
// warm-up evaluations (including the start), and the kernel/smoothing
// shape of the per-level densities.
const (
	boGamma      = 0.3
	boCandidates = 8
	boInit       = 4
	boKernelSide = 0.4  // triangular kernel mass at ±1 level
	boSmoothing  = 0.25 // Laplace smoothing added to every level
)

// boObservation is one evaluated cell with the scores the good/bad split
// ranks on.
type boObservation struct {
	rIdx, cIdx int
	edp        float64 // NaN when infeasible (never scored)
	nf         float64
	feasible   bool
}

// boScratch is the TPE sampler's buffer set, kept in Scratch so repeated
// decisions reuse every working slice and the stream generator. With a
// scratch attached, the TPE loop runs allocation-free in steady state
// (pinned by TestBOAllocBudget).
type boScratch struct {
	evaluated    []bool
	obs, ranked  []boObservation
	goodR, goodC []float64
	badR, badC   []float64
	label        []byte
	src          rng.Source
}

// boLabel appends the deterministic stream label of one bo search to dst.
// Two decisions with the same workload shape, layer position, start and
// budget share a stream; the device age is deliberately absent (see the
// determinism note on bayesian).
func boLabel(dst []byte, o *Objective, start ou.Size, budget int) []byte {
	// "opt/bo/" names the package bo was first written in. The label seeds
	// the stream, so renaming it would move every bo decision (opt-compare,
	// ouexplore, the benchmark's core.decide_live_ns.bo): keep it verbatim.
	dst = append(dst, "opt/bo/"...)
	dst = strconv.AppendInt(dst, int64(o.Work.Xbars), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(o.Work.RowsUsed), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(o.Work.ColsUsed), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(o.Layer), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(o.Of), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(start.R), 10)
	dst = append(dst, 'x')
	dst = strconv.AppendInt(dst, int64(start.C), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(budget), 10)
	return dst
}

// reset sizes the working buffers for one search, reusing capacity.
func (bs *boScratch) reset(total, budget, n int) {
	if cap(bs.evaluated) < total {
		bs.evaluated = make([]bool, total)
	}
	bs.evaluated = bs.evaluated[:total]
	for i := range bs.evaluated {
		bs.evaluated[i] = false
	}
	if cap(bs.obs) < budget {
		bs.obs = make([]boObservation, 0, budget)
		bs.ranked = make([]boObservation, 0, budget)
	}
	bs.obs = bs.obs[:0]
	if cap(bs.goodR) < n {
		bs.goodR = make([]float64, n)
		bs.goodC = make([]float64, n)
		bs.badR = make([]float64, n)
		bs.badC = make([]float64, n)
	}
	bs.goodR, bs.goodC = bs.goodR[:n], bs.goodC[:n]
	bs.badR, bs.badC = bs.badR[:n], bs.badC[:n]
}

// bayesian ("bo") is a TPE-style (tree-structured Parzen estimator)
// surrogate optimizer over the discrete OU grid, the stdlib-only analogue
// of the crossbar design-space Bayesian optimization of arXiv 2605.08461.
//
// Instead of modelling EDP(x) directly, TPE splits the evaluated
// candidates into a good set (the lowest-EDP γ fraction) and a bad set,
// estimates a per-axis kernel density for each (a triangular kernel over
// the discrete R/C level axes with Laplace smoothing), and evaluates next
// the unseen grid point maximising the density
// ratio good(x)/bad(x). Candidates are drawn from the good density, so
// search effort concentrates where low-EDP evidence accumulates while the
// smoothing keeps every cell reachable.
//
// Budget is the maximum number of candidate evaluations; budget <= 0 uses
// half the grid (18 on the paper's 6×6 grid — half the EX comparator
// work). The start point (the controller's feasibility-clamped seed) is
// always evaluated first, so a feasible start is never lost: on failure to
// improve, the incumbent is returned (the same guarantee RB gives
// Algorithm 1).
//
// Determinism: every random draw flows through an internal/rng SplitMix64
// stream whose label is derived from the objective identity (workload
// shape, layer position, start and budget), so a bo search is a pure
// function of its arguments — replays, worker pools and odinlint's detflow
// analysis all see identical candidate sequences. The label deliberately excludes
// the device age: EDP is age-free and the feasibility ordering is
// age-invariant, so an age-free stream makes the whole decision a function
// of the *feasible set* rather than the raw age — the invariant the
// decision cache (internal/decache) memoizes on.
func bayesian(g ou.Grid, o Objective, start ou.Size, budget int) Result {
	n := g.Levels()
	total := n * n
	if budget <= 0 {
		budget = (total + 1) / 2
	}
	if budget > total {
		budget = total
	}
	var bs *boScratch
	if o.Scratch != nil {
		bs = &o.Scratch.bo
	} else {
		bs = new(boScratch)
	}
	bs.reset(total, budget, n)
	bs.label = boLabel(bs.label[:0], &o, start, budget)
	src := &bs.src
	src.Reseed(rng.HashBytes(bs.label))

	res := Result{BestEDP: math.Inf(1)}
	evaluate := func(ri, ci int) {
		s := g.SizeAt(ri, ci)
		bs.evaluated[ri*n+ci] = true
		res.Evaluations++
		ob := boObservation{rIdx: ri, cIdx: ci, nf: o.NF(s)}
		if !o.Feasible(s) {
			ob.edp = math.NaN()
			o.probe(s, false, math.NaN())
		} else {
			ob.edp, ob.feasible = o.EDP(s), true
			o.probe(s, true, ob.edp)
			if ob.edp < res.BestEDP {
				res.Best, res.BestEDP, res.Found = s, ob.edp, true
			}
		}
		bs.obs = append(bs.obs, ob)
	}

	// Warm-up: the clamped start first (incumbent guarantee), then
	// quasi-random probes; a collision advances row-major to the next
	// unseen cell so the warm-up never wastes budget.
	rIdx, cIdx, ok := g.IndexOf(start)
	if !ok {
		rIdx, cIdx = g.NearestIndex(start.R), g.NearestIndex(start.C)
	}
	evaluate(rIdx, cIdx)
	for res.Evaluations < budget && res.Evaluations < boInit {
		idx := src.Intn(total)
		for bs.evaluated[idx] {
			idx = (idx + 1) % total
		}
		evaluate(idx/n, idx%n)
	}

	// TPE loop: split → per-axis densities → draw from good → evaluate the
	// best-ratio unseen draw.
	for res.Evaluations < budget {
		boDensities(bs, n)
		goodR, goodC, badR, badC := bs.goodR, bs.goodC, bs.badR, bs.badC
		score := func(idx int) float64 {
			ri, ci := idx/n, idx%n
			return (goodR[ri] * goodC[ci]) / (badR[ri] * badC[ci])
		}
		pick := -1
		for d := 0; d < boCandidates; d++ {
			idx := boSampleLevel(src, goodR)*n + boSampleLevel(src, goodC)
			if bs.evaluated[idx] || idx == pick {
				continue
			}
			if pick < 0 {
				pick = idx
				continue
			}
			// Higher ratio wins; an exact tie goes to the lower grid index
			// so the pick never depends on draw order.
			si, sp := score(idx), score(pick)
			if si > sp || (si >= sp && idx < pick) {
				pick = idx
			}
		}
		if pick < 0 {
			// Every draw landed on seen cells: fall back to the best-ratio
			// unseen cell, scanned row-major for a deterministic tie-break.
			for idx := 0; idx < total; idx++ {
				if bs.evaluated[idx] {
					continue
				}
				if pick < 0 || score(idx) > score(pick) {
					pick = idx
				}
			}
		}
		if pick < 0 {
			break // grid exhausted below budget
		}
		evaluate(pick/n, pick%n)
	}
	return res
}

// boDensities builds the per-axis good/bad kernel densities of the TPE
// split into the scratch buffers. Feasible observations rank by EDP; when
// nothing feasible has been seen yet the split ranks by non-ideality
// instead, steering the search toward the feasible (small-OU) region
// exactly as RB's infeasible-descent move does. Every density is
// Laplace-smoothed so unseen levels keep non-zero mass (and the ratio
// stays finite).
func boDensities(bs *boScratch, n int) {
	bs.ranked = append(bs.ranked[:0], bs.obs...)
	ranked := bs.ranked
	feasible := 0
	for _, ob := range ranked {
		if ob.feasible {
			feasible++
		}
	}
	// Deterministic ranking: good candidates first. Feasible beats
	// infeasible; among feasible, lower EDP; among infeasible, lower NF;
	// final tie-break on grid index keeps the sort total.
	boSortRanked(ranked)
	nGood := int(math.Ceil(boGamma * float64(len(ranked))))
	if feasible > 0 && nGood > feasible {
		nGood = feasible // never let infeasible cells into the good set
	}
	if nGood < 1 {
		nGood = 1
	}
	boAxisDensity(ranked[:nGood], n, bs.goodR, bs.goodC)
	boAxisDensity(ranked[nGood:], n, bs.badR, bs.badC)
}

// boSortRanked orders observations best-first with a total, deterministic
// comparator (insertion sort: the slices are at most one budget long).
func boSortRanked(obs []boObservation) {
	less := func(a, b boObservation) bool {
		if a.feasible != b.feasible {
			return a.feasible
		}
		if a.feasible { // both feasible: EDP decides
			if a.edp < b.edp {
				return true
			}
			if a.edp > b.edp {
				return false
			}
		} else { // both infeasible: NF decides
			if a.nf < b.nf {
				return true
			}
			if a.nf > b.nf {
				return false
			}
		}
		if a.rIdx != b.rIdx {
			return a.rIdx < b.rIdx
		}
		return a.cIdx < b.cIdx
	}
	for i := 1; i < len(obs); i++ {
		for j := i; j > 0 && less(obs[j], obs[j-1]); j-- {
			obs[j], obs[j-1] = obs[j-1], obs[j]
		}
	}
}

// boAxisDensity accumulates the triangular-kernel level densities of one
// observation set on both axes, writing into the provided buffers.
func boAxisDensity(obs []boObservation, n int, dR, dC []float64) {
	for l := 0; l < n; l++ {
		dR[l], dC[l] = boSmoothing, boSmoothing
	}
	deposit := func(d []float64, level int) {
		d[level] += 1
		if level > 0 {
			d[level-1] += boKernelSide
		}
		if level+1 < n {
			d[level+1] += boKernelSide
		}
	}
	for _, ob := range obs {
		deposit(dR, ob.rIdx)
		deposit(dC, ob.cIdx)
	}
}

// boSampleLevel draws one level index from an (unnormalised) density.
func boSampleLevel(src *rng.Source, d []float64) int {
	var sum float64
	for _, w := range d {
		sum += w
	}
	u := src.Float64() * sum
	for l := 0; l < len(d); l++ {
		u -= d[l]
		if u < 0 {
			return l
		}
	}
	return len(d) - 1
}
