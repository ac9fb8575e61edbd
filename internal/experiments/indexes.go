package experiments

import (
	"fmt"
	"io"

	"odin/internal/core"
	"odin/internal/dnn"
	"odin/internal/sparsity"
)

// RowSkipRow is one (width) comparison between the analytic skip model and
// a measured bitmap.
type RowSkipRow struct {
	Width    int
	Analytic float64
	Measured float64
}

// RowSkipResult validates the analytic row-segment-skip statistics
// (internal/sparsity.Profile) against exact measurements on synthesized
// weight bitmaps for a representative layer.
type RowSkipResult struct {
	Model string
	Layer string
	Rows  []RowSkipRow
}

// RowSkip runs the validation on a mid-network VGG11 layer.
func RowSkip(sys core.System, widths []int) (RowSkipResult, error) {
	if len(widths) == 0 {
		widths = []int{4, 8, 16, 32, 64, 128}
	}
	model := dnn.NewVGG11()
	if _, err := sys.Prepare(model); err != nil {
		return RowSkipResult{}, err
	}
	layer := model.Layers[5]
	profile := sparsity.ProfileFor(layer, sys.Sparsity)
	bitmap := sparsity.Synthesize(512, 512, profile, "rowskip/"+layer.Name)

	res := RowSkipResult{Model: model.Name, Layer: layer.Name}
	for _, w := range widths {
		res.Rows = append(res.Rows, RowSkipRow{
			Width:    w,
			Analytic: profile.SegmentZeroFraction(w),
			Measured: bitmap.SegmentZeroFraction(w),
		})
	}
	return res, nil
}

// Render prints the validation table.
func (r RowSkipResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Row-skip model validation (%s %s): analytic vs measured segment-zero fraction\n",
		r.Model, r.Layer)
	fmt.Fprintf(w, "%-8s %12s %12s\n", "width", "analytic", "measured")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %11.1f%% %11.1f%%\n", row.Width, row.Analytic*100, row.Measured*100)
	}
}

// IndexesRow is one OU width's index-storage footprint for a whole model.
type IndexesRow struct {
	Width     int
	StorageKB float64 // row-index tables across all layers at this OU width
}

// IndexesResult quantifies the paper's §II motivation: offline OU
// compression schemes must store row-index tables sized to the chosen OU
// width; supporting every candidate width (as a static design that wants
// Odin's flexibility would have to) multiplies that storage, while Odin
// derives decisions online from a 4-feature policy instead.
type IndexesResult struct {
	Model       string
	Rows        []IndexesRow
	AllWidthsKB float64 // storing tables for every candidate width
	OdinKB      float64 // Odin's alternative: policy + buffer storage
}

// Indexes runs the storage accounting on VGG11.
func Indexes(sys core.System, widths []int) (IndexesResult, error) {
	if len(widths) == 0 {
		widths = []int{4, 8, 16, 32, 64, 128}
	}
	model := dnn.NewVGG11()
	wl, err := sys.Prepare(model)
	if err != nil {
		return IndexesResult{}, err
	}
	res := IndexesResult{Model: model.Name}
	for _, width := range widths {
		var kb float64
		for j := range model.Layers {
			m := wl.Mappings[j]
			profile := sparsity.ProfileFor(model.Layers[j], sys.Sparsity)
			bm := sparsity.Synthesize(m.RowsUsed, m.ColsUsed, profile,
				fmt.Sprintf("indexes/%s/%d", model.Layers[j].Name, width))
			kb += bm.CompressRowIndices(width).KB() * float64(m.Xbars)
		}
		res.Rows = append(res.Rows, IndexesRow{Width: width, StorageKB: kb})
		res.AllWidthsKB += kb
	}
	// Odin's storage: the policy parameters (float32) plus the training
	// buffer (§V.E: 0.35 KB).
	opts := core.DefaultControllerOptions()
	pol, _, err := core.BootstrapPolicy(sys, nil, core.DefaultBootstrapConfig())
	if err != nil {
		return res, err
	}
	o := sys.Arch.OverheadModel(pol.NumParams(), opts.BufferSize, core.UpdateEpochs)
	res.OdinKB = float64(pol.NumParams()*4)/1024 + o.TrainingBufferKB
	return res, nil
}

// Render prints the storage comparison.
func (r IndexesResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Index-storage accounting (%s): row-index tables for offline OU compression\n", r.Model)
	fmt.Fprintf(w, "%-8s %14s\n", "OU width", "storage (KB)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %14.1f\n", row.Width, row.StorageKB)
	}
	fmt.Fprintf(w, "supporting every candidate width statically: %.1f KB\n", r.AllWidthsKB)
	fmt.Fprintf(w, "Odin's online alternative (policy + buffer):  %.2f KB (%.0f× smaller)\n",
		r.OdinKB, r.AllWidthsKB/r.OdinKB)
}
