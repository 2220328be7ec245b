package analysis

import (
	"os"
	"strings"
	"testing"
)

// TestRegistryComplete is the meta-test: the registry carries exactly the four
// analyzers of the suite, in stable order, each fully populated.
func TestRegistryComplete(t *testing.T) {
	want := []string{"hotpath", "obsnames", "nofloateq", "determinism"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() returns %d analyzers, want %d", len(all), len(want))
	}
	seen := make(map[string]bool)
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("analyzer name %q registered twice", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestDriverRunsFullSuite keeps cmd/automon-lint wired to the registry: the
// driver must run analysis.All(), so adding an analyzer there is enough to
// put it in CI.
func TestDriverRunsFullSuite(t *testing.T) {
	src, err := os.ReadFile("../../cmd/automon-lint/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "analysis.All()") {
		t.Error("cmd/automon-lint does not call analysis.All(); the driver must run the registered suite")
	}
}

// TestRepoIsLintClean runs the full suite over the real module, exactly as CI
// does: the repository itself must hold its own invariants.
func TestRepoIsLintClean(t *testing.T) {
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Lint(mod, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
