package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// dataflow_test.go covers the interprocedural layer (summary.go) through
// the determinism analyzer's cross-package rules, plus the properties the
// layer itself guarantees: deterministic diagnostics at any analysis order
// and build-tag/testdata handling in the loader.

// TestFloatflowTreeFixture exercises the cross-package rules on a fixture
// tree: a fake internal/core (the deterministic root set), a helper package
// holding the reachable sites, and a fake internal/obs providing metric
// sinks for the float-flow sink rule.
func TestFloatflowTreeFixture(t *testing.T) {
	mod, err := LoadFixtureTree(filepath.Join("testdata", "src", "floatflowtree"), "fixture/floatflow")
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Pkgs) != 3 {
		t.Fatalf("fixture tree loaded %d packages, want 3", len(mod.Pkgs))
	}
	checkFixture(t, mod, Determinism)
}

// TestDataflowDiagnosticsOrderInvariant pins summary determinism: the same
// module analyzed with the package list and the suite's analyzer list
// reversed must report the identical diagnostics. The call graph's
// position-sorted order and the harness's final sort make the output a pure
// function of the source, not of traversal order.
func TestDataflowDiagnosticsOrderInvariant(t *testing.T) {
	dir := filepath.Join("testdata", "src", "floatflowtree")
	mod, err := LoadFixtureTree(dir, "fixture/floatflow")
	if err != nil {
		t.Fatal(err)
	}
	suite := All()
	base, err := Lint(mod, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 {
		t.Fatal("fixture tree produced no diagnostics; the invariance check is vacuous")
	}

	revPkgs := make([]*Package, len(mod.Pkgs))
	for i, pkg := range mod.Pkgs {
		revPkgs[len(revPkgs)-1-i] = pkg
	}
	revSuite := make([]*Analyzer, len(suite))
	for i, a := range suite {
		revSuite[len(revSuite)-1-i] = a
	}
	again, err := Lint(&Module{Fset: mod.Fset, Pkgs: revPkgs}, revSuite)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(base) {
		t.Fatalf("reversed-order lint reported %d diagnostics, want %d", len(again), len(base))
	}
	for i := range base {
		if base[i].String() != again[i].String() {
			t.Errorf("diagnostic %d differs across analysis orders:\n  forward:  %s\n  reversed: %s",
				i, base[i], again[i])
		}
	}
}

// TestLoaderRespectsBuildTagsAndSkipsTestdata pins the driver edge cases:
// testdata fixtures (which intentionally violate every invariant) must not
// load, and build-tag-gated files resolve with the default (race-off)
// context — internal/testenv ships race_on.go/race_off.go exactly to gate
// on that tag.
func TestLoaderRespectsBuildTagsAndSkipsTestdata(t *testing.T) {
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	var testenvPkg *Package
	for _, pkg := range mod.Pkgs {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("loader picked up a testdata package: %s", pkg.Path)
		}
		if strings.HasSuffix(pkg.Path, "internal/testenv") {
			testenvPkg = pkg
		}
	}
	if testenvPkg == nil {
		t.Fatal("internal/testenv did not load; the build-tag check is vacuous")
	}
	names := make(map[string]bool)
	for _, f := range testenvPkg.Files {
		names[filepath.Base(mod.Fset.Position(f.Pos()).Filename)] = true
	}
	if !names["race_off.go"] {
		t.Error("internal/testenv/race_off.go (//go:build !race) did not load under the default context")
	}
	if names["race_on.go"] {
		t.Error("internal/testenv/race_on.go (//go:build race) loaded despite its build tag")
	}
}
