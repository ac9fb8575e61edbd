package experiments

import (
	"fmt"
	"io"

	"odin/internal/core"
)

// Table1Row is one component row of the tile specification.
type Table1Row struct {
	Component string
	Spec      string
	AreaMM2   float64
}

// Table1Result reproduces Table I.
type Table1Result struct {
	Rows        []Table1Row
	TileAreaMM2 float64
	ClockGHz    float64
	TechNode    string
}

// Table1 builds the tile specification from the architecture model.
func Table1(sys core.System) Table1Result {
	res := Table1Result{
		TileAreaMM2: sys.Arch.TileArea(),
		ClockGHz:    sys.Arch.ClockHz / 1e9,
		TechNode:    "32nm",
	}
	for _, c := range sys.Arch.TileComponents() {
		res.Rows = append(res.Rows, Table1Row{Component: c.Name, Spec: c.Spec, AreaMM2: c.Area})
	}
	return res
}

// Render prints the table in the paper's layout.
func (r Table1Result) Render(w io.Writer) {
	fmt.Fprintf(w, "TABLE I. PIM ARCHITECTURE SPECIFICATIONS\n")
	fmt.Fprintf(w, "Tile Configuration (%.1f GHz, %s, %.2f mm²)\n", r.ClockGHz, r.TechNode, r.TileAreaMM2)
	fmt.Fprintf(w, "%-26s %-58s %s\n", "Component", "Specification", "Area (mm²)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-26s %-58s %.4f\n", row.Component, row.Spec, row.AreaMM2)
	}
}

// Table2Row is one device parameter.
type Table2Row struct {
	Parameter   string
	Description string
	Value       string
}

// Table2Result reproduces Table II.
type Table2Result struct{ Rows []Table2Row }

// Table2 builds the ReRAM parameter table from the device model.
func Table2(sys core.System) Table2Result {
	d := sys.Device
	return Table2Result{Rows: []Table2Row{
		{"R_wire", "Crossbar wire resistance", fmt.Sprintf("%.0f ohm", d.RWire)},
		{"G_ON/G_OFF", "ON/OFF state conductance", fmt.Sprintf("%.0f/%.2f uS", d.GOn*1e6, d.GOff*1e6)},
		{"v", "Drift coefficient", fmt.Sprintf("%.1f s^-1", d.Nu)},
	}}
}

// Render prints the table in the paper's layout.
func (r Table2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "TABLE II. PARAMETERS OF RERAM CROSSBAR SYSTEM\n")
	fmt.Fprintf(w, "%-12s %-28s %s\n", "Parameter", "Description", "Value")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s %-28s %s\n", row.Parameter, row.Description, row.Value)
	}
}
