package odin

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunsTheMakeCIGates pins that CI and `make ci` run one gate list:
// every command step of .github/workflows/ci.yml is exactly `make
// <target>`, and the targets are the Makefile's `ci` prerequisites in
// order. A command typed into ci.yml instead would be a second copy that
// drifts from the Makefile.
func TestCIRunsTheMakeCIGates(t *testing.T) {
	t.Parallel()
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^ci:(.*)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no ci target")
	}
	want := strings.Fields(string(m[1]))

	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(yml), "\n") {
		line = strings.TrimPrefix(strings.TrimSpace(line), "- ")
		cmd, ok := strings.CutPrefix(line, "run:")
		if !ok {
			continue
		}
		f := strings.Fields(cmd)
		if len(f) != 2 || f[0] != "make" {
			t.Fatalf("ci.yml step runs %q; each step must be one `make <target>`", strings.TrimSpace(cmd))
		}
		got = append(got, f[1])
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ci.yml runs make %v, but `make ci` runs %v", got, want)
	}
}
