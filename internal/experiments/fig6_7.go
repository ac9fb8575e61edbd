package experiments

import (
	"fmt"
	"io"

	"odin/internal/core"
	"odin/internal/ou"
)

// Fig6Row is one configuration's horizon totals for VGG11.
type Fig6Row struct {
	Name       string
	Reprograms int
	// Per-inference averages normalised to the 16×16 configuration's
	// *inference-only* energy/latency (the paper's normalisation).
	InferenceEnergy float64
	TotalEnergy     float64 // inference + reprogramming
	InferenceLat    float64
	TotalLat        float64
}

// Fig6Result compares Odin with the homogeneous baselines on energy and
// latency (paper Fig. 6) and carries the §V.C reprogramming counts.
type Fig6Result struct {
	Model string
	Rows  []Fig6Row // baselines in paper order, then Odin last
}

// Fig6 runs the VGG11 horizon for every configuration.
func Fig6(sys core.System, base core.ControllerOptions) (Fig6Result, error) {
	cfg := defaultHorizon()
	res := Fig6Result{Model: "VGG11"}
	wl, pol, err := odinSetup(sys, res.Model)
	if err != nil {
		return res, err
	}
	summaries, err := baselineHorizons(sys, wl, cfg)
	if err != nil {
		return res, err
	}
	odin, err := odinHorizon(sys, wl, pol, base, cfg)
	if err != nil {
		return res, err
	}
	names := configNames()
	norm := summaries[0] // 16×16 is the normalisation basis
	for i, sum := range append(summaries, odin) {
		res.Rows = append(res.Rows, Fig6Row{
			Name:            names[i],
			Reprograms:      sum.Reprograms,
			InferenceEnergy: sum.MeanInferenceEnergy() / norm.MeanInferenceEnergy(),
			TotalEnergy:     sum.TotalEnergy() / norm.MeanInferenceEnergy(),
			InferenceLat:    sum.MeanInferenceLatency() / norm.MeanInferenceLatency(),
			TotalLat:        sum.TotalLatency() / norm.MeanInferenceLatency(),
		})
	}
	return res, nil
}

// OdinRow returns the Odin row (always last).
func (r Fig6Result) OdinRow() Fig6Row { return r.Rows[len(r.Rows)-1] }

// Render prints the normalised energy/latency bars and reprogram counts.
func (r Fig6Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 6: energy and latency of OU configurations for %s (CIFAR-10),\n", r.Model)
	fmt.Fprintf(w, "normalised to the 16×16 configuration's inference energy/latency; horizon t0→1e8 s\n")
	fmt.Fprintf(w, "%-8s %10s %12s %10s %12s %12s\n",
		"Config", "Einf", "Etotal", "Linf", "Ltotal", "Reprograms")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %10.3f %12.3f %10.3f %12.3f %12d\n",
			row.Name, row.InferenceEnergy, row.TotalEnergy, row.InferenceLat, row.TotalLat, row.Reprograms)
	}
	odin := r.OdinRow()
	for _, row := range r.Rows[:len(r.Rows)-1] {
		fmt.Fprintf(w, "Odin reduces total energy %.1f× and total latency %.1f× vs %s\n",
			row.TotalEnergy/odin.TotalEnergy, row.TotalLat/odin.TotalLat, row.Name)
	}
}

// Fig7Series is one accuracy-over-time curve.
type Fig7Series struct {
	Name    string
	Times   []float64
	Acc     []float64 // estimated accuracy (fraction) per sample
	MinAcc  float64
	Reprogs int
}

// Fig7Result reproduces the accuracy study: homogeneous OUs with and
// without reprogramming vs Odin, over the inference-run sweep.
type Fig7Result struct {
	Model    string
	IdealAcc float64
	Series   []Fig7Series
}

// Fig7 runs the accuracy sweeps.
func Fig7(sys core.System, base core.ControllerOptions) (Fig7Result, error) {
	cfg := defaultHorizon()
	cfg.RecordEvery = cfg.Epochs / 50
	res := Fig7Result{Model: "VGG11"}
	wl, pol, err := odinSetup(sys, res.Model)
	if err != nil {
		return res, err
	}
	res.IdealAcc = wl.Model.IdealAccuracy
	for _, size := range []ou.Size{{R: 16, C: 16}, {R: 8, C: 4}} {
		for _, disable := range []bool{true, false} {
			b, err := core.NewBaseline(sys, wl, size)
			if err != nil {
				return res, err
			}
			b.DisableReprogram = disable
			name := size.String() + " w/ reprog"
			if disable {
				name = size.String() + " w/o reprog"
			}
			res.Series = append(res.Series, seriesFrom(name, core.SimulateHorizon(b, cfg)))
		}
	}
	odin, err := odinHorizon(sys, wl, pol, base, cfg)
	if err != nil {
		return res, err
	}
	res.Series = append(res.Series, seriesFrom("Odin", odin))
	return res, nil
}

func seriesFrom(name string, sum core.HorizonSummary) Fig7Series {
	s := Fig7Series{Name: name, MinAcc: sum.MinAccuracy, Reprogs: sum.Reprograms}
	for _, sample := range sum.Samples {
		s.Times = append(s.Times, sample.Time)
		s.Acc = append(s.Acc, sample.Accuracy)
	}
	return s
}

// Render prints each curve at a few sample points plus the summary drop.
func (r Fig7Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 7: inference accuracy over runs, %s (CIFAR-10); ideal accuracy %.1f%%\n",
		r.Model, r.IdealAcc*100)
	for _, s := range r.Series {
		fmt.Fprintf(w, "%-18s reprograms=%-5d min acc=%.1f%% (drop %.1f pts)\n",
			s.Name, s.Reprogs, s.MinAcc*100, (r.IdealAcc-s.MinAcc)*100)
		stride := len(s.Times) / 10
		if stride == 0 {
			stride = 1
		}
		for i := 0; i < len(s.Times); i += stride {
			fmt.Fprintf(w, "   t=%.1E acc=%.1f%%\n", s.Times[i], s.Acc[i]*100)
		}
	}
}
