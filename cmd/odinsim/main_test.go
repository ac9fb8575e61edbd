package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odin/internal/clock"
	"odin/internal/experiments"
)

func TestParseArgsFlagsInAnyPosition(t *testing.T) {
	t.Parallel()
	cases := []struct {
		args    []string
		json    bool
		workers int
		pos     []string
	}{
		{[]string{"-json", "all"}, true, 0, []string{"all"}},
		{[]string{"all", "-json"}, true, 0, []string{"all"}}, // the original bug report
		{[]string{"all", "--json"}, true, 0, []string{"all"}},
		{[]string{"-workers", "3", "fig3", "-json"}, true, 3, []string{"fig3"}},
		{[]string{"fig3", "-workers=5", "fig8"}, false, 5, []string{"fig3", "fig8"}},
		{[]string{"tab1", "tab2"}, false, 0, []string{"tab1", "tab2"}},
	}
	for _, c := range cases {
		opts, pos, err := parseArgs(c.args)
		if err != nil {
			t.Fatalf("parseArgs(%v): %v", c.args, err)
		}
		if opts.json != c.json || opts.workers != c.workers {
			t.Fatalf("parseArgs(%v) = json %v workers %d, want json %v workers %d",
				c.args, opts.json, opts.workers, c.json, c.workers)
		}
		if len(pos) != len(c.pos) {
			t.Fatalf("parseArgs(%v) positionals %v, want %v", c.args, pos, c.pos)
		}
		for i := range pos {
			if pos[i] != c.pos[i] {
				t.Fatalf("parseArgs(%v) positionals %v, want %v", c.args, pos, c.pos)
			}
		}
	}
}

func TestParseArgsRejectsBadFlags(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{
		{"-workers"},           // missing value
		{"-workers", "x"},      // non-numeric
		{"-workers", "0"},      // pool must be positive
		{"-workers=-2", "all"}, // negative
		{"-bogus", "all"},      // unknown flag
		{"-out"},               // missing value
		{"-cache"},             // missing value
		{"-cache", "maybe"},    // not on/off
	} {
		if _, _, err := parseArgs(args); err == nil {
			t.Fatalf("parseArgs(%v) accepted bad input", args)
		}
	}
}

// TestListJSONRegression pins the second half of the CLI bug: the old
// parser turned "odinsim -json list" into ByID("list") and died with
// "unknown experiment". It must now emit the id/title list as JSON in
// paper order.
func TestListJSONRegression(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{{"-json", "list"}, {"list", "-json"}} {
		var out, errs bytes.Buffer
		if err := run(&out, &errs, args, clock.NewVirtual(0)); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		var entries []struct{ ID, Title string }
		if err := json.Unmarshal(out.Bytes(), &entries); err != nil {
			t.Fatalf("run(%v) output is not a JSON array: %v\n%s", args, err, out.String())
		}
		all := experiments.All()
		if len(entries) != len(all) {
			t.Fatalf("listed %d experiments, want %d", len(entries), len(all))
		}
		for i, e := range all {
			if entries[i].ID != e.ID {
				t.Fatalf("entry %d is %s, want %s (paper order)", i, entries[i].ID, e.ID)
			}
		}
	}
}

func TestListRejectsExtraArguments(t *testing.T) {
	t.Parallel()
	err := run(io2(), io2(), []string{"list", "tab1"}, clock.NewVirtual(0))
	if err == nil {
		t.Fatal("list with extra arguments did not error")
	}
}

// TestJSONFlagAfterExperimentID is the headline regression: the old CLI
// treated a non-leading -json as an experiment id. The flag must work in
// trailing position and keys must come out in selection (paper) order,
// not encoding/json's alphabetical map order.
func TestJSONFlagAfterExperimentID(t *testing.T) {
	t.Parallel()
	var out, errs bytes.Buffer
	if err := run(&out, &errs, []string{"tab1", "abl-cluster", "-json"}, clock.NewVirtual(0)); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(out.Bytes()) {
		t.Fatalf("invalid JSON: %s", out.String())
	}
	at1 := bytes.Index(out.Bytes(), []byte(`"tab1":`))
	at2 := bytes.Index(out.Bytes(), []byte(`"abl-cluster":`))
	if at1 < 0 || at2 < 0 || at1 > at2 {
		t.Fatalf("keys missing or alphabetically reordered (tab1@%d, abl-cluster@%d):\n%s", at1, at2, out.String())
	}
}

// TestWorkersFlagOutputIdentical runs a subset at workers=1 and workers=4
// through the real CLI entry point and requires identical bytes.
func TestWorkersFlagOutputIdentical(t *testing.T) {
	t.Parallel()
	render := func(workers string) string {
		var out, errs bytes.Buffer
		if err := run(&out, &errs, []string{"-workers", workers, "tab1", "fig3", "overhead"}, clock.NewVirtual(0)); err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		return out.String()
	}
	if a, b := render("1"), render("4"); a != b {
		t.Fatalf("-workers changed the rendered artefacts\nworkers=1: %q\nworkers=4: %q", a, b)
	}
}

// TestCacheFlagOutputIdentical is the CLI face of the decision-cache
// contract: -cache off and -cache on (the default) render byte-identical
// artefacts, as text and as -json. fig7 is the cheapest experiment whose
// output changes when the cache serves a decision from the wrong age
// bucket. The switch travels in experiments.RunOptions, so the runs can
// share the process.
func TestCacheFlagOutputIdentical(t *testing.T) {
	t.Parallel()
	render := func(mode string, format ...string) string {
		args := append([]string{"-cache", mode, "tab1", "fig3", "overhead", "fig7"}, format...)
		var out, errs bytes.Buffer
		if err := run(&out, &errs, args, clock.NewVirtual(0)); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return out.String()
	}
	for _, format := range [][]string{nil, {"-json"}} {
		if on, off := render("on", format...), render("off", format...); on != off {
			t.Fatalf("-cache changed the rendered artefacts %v\non:  %q\noff: %q", format, on, off)
		}
	}
}

func TestAllCannotCombineWithIDs(t *testing.T) {
	t.Parallel()
	if err := run(io2(), io2(), []string{"all", "tab1"}, clock.NewVirtual(0)); err == nil {
		t.Fatal("'all' combined with explicit ids did not error")
	}
}

func TestUnknownExperimentAndEmptySelection(t *testing.T) {
	t.Parallel()
	if err := run(io2(), io2(), []string{"nope"}, clock.NewVirtual(0)); err == nil {
		t.Fatal("unknown experiment id did not error")
	}
	if err := run(io2(), io2(), nil, clock.NewVirtual(0)); err == nil {
		t.Fatal("empty selection did not error")
	}
}

func TestHelpSucceeds(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{{"-h"}, {"help"}, {"--help", "all"}} {
		var out, errs bytes.Buffer
		if err := run(&out, &errs, args, clock.NewVirtual(0)); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		if !strings.Contains(out.String(), "usage:") {
			t.Fatalf("run(%v) printed no usage:\n%s", args, out.String())
		}
	}
}

// io2 returns a throwaway buffer (keeps the error-path call sites short).
func io2() *bytes.Buffer { return &bytes.Buffer{} }

// TestTraceSubcommand drives `odinsim trace` end to end: audit table and
// flame summary on stdout, valid Chrome trace-event JSON at -out.
func TestTraceSubcommand(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errs bytes.Buffer
	args := []string{"trace", "-model", "resnet18", "-runs", "2", "-out", path}
	if err := run(&out, &errs, args, clock.NewVirtual(0)); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"trace: model ResNet18, 2 runs", "layer  predicted", "span", "chrome trace:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("trace output missing %q:\n%s", want, text)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("chrome trace schema off: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
}

// TestTraceArgumentErrors pins the trace subcommand's validation: -model is
// mandatory, extra positionals are rejected, and the numeric flags insist
// on positive values.
func TestTraceArgumentErrors(t *testing.T) {
	t.Parallel()
	for _, args := range [][]string{
		{"trace"},
		{"trace", "spurious", "-model", "resnet18"},
		{"trace", "-model", "resnet18", "-runs", "0"},
		{"trace", "-model", "resnet18", "-horizon", "-3"},
		{"trace", "-model", "no-such-net"},
	} {
		if err := run(io2(), io2(), args, clock.NewVirtual(0)); err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}
}
