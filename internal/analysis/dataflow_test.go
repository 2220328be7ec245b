package analysis

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"
)

// dataflow_test.go covers the interprocedural layer (summary.go) through its
// three analyzers — statepure, lockorder, floatflow — plus the properties the
// layer itself guarantees: deterministic diagnostics at any analysis order,
// build-tag/testdata handling in the loader, the statepure root manifest, and
// the real tree's acyclic lock graph.

func TestStatepureFixture(t *testing.T) {
	runFixture(t, Statepure, "statepure", "fixture/statepure")
}

// The lockorder fixture is loaded under fixture/internal/core so the
// package falls inside the graphed scope.
func TestLockorderFixture(t *testing.T) {
	runFixture(t, Lockorder, "lockorder", "fixture/internal/core")
}

// TestLockorderScopedToLockPackages reloads the same fixture under a path
// outside core/transport/obs and requires zero findings.
func TestLockorderScopedToLockPackages(t *testing.T) {
	mod, err := LoadFixture(filepath.Join("testdata", "src", "lockorder"), "fixture/free")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Lint(mod, []*Analyzer{Lockorder})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("lockorder fired outside its package scope: %s", d)
	}
}

// TestFloatflowTreeFixture exercises the cross-package rules on a fixture
// tree: a fake internal/core (the deterministic root set), a helper package
// holding the taint sites, and a fake internal/obs providing metric sinks.
func TestFloatflowTreeFixture(t *testing.T) {
	mod, err := LoadFixtureTree(filepath.Join("testdata", "src", "floatflowtree"), "fixture/floatflow")
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Pkgs) != 3 {
		t.Fatalf("fixture tree loaded %d packages, want 3", len(mod.Pkgs))
	}
	checkFixture(t, mod, Floatflow)
}

// statepureManifest is the reviewed protocol transition set: full-sync
// resolution, violation handling, and lazy-sync slack application. Marking
// a new transition //automon:statepure without extending this list — or
// unmarking one — is forced into review, mirroring the hotpath manifest.
var statepureManifest = map[string]bool{
	"core.Machine.HandleViolation": true,
	"core.Machine.fullSync":        true,
	"core.Machine.lazySync":        true,
}

func TestStatepureAnnotationsMatchManifest(t *testing.T) {
	found := make(map[string]bool)
	walkModule(t, func(_ string, f *ast.File) {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && hasDirective(fd, statepureMarker) {
				found[f.Name.Name+"."+declName(fd)] = true
			}
		}
	})
	for fn := range statepureManifest {
		if !found[fn] {
			t.Errorf("%s is in the statepure manifest but carries no //automon:statepure annotation", fn)
		}
	}
	for fn := range found {
		if !statepureManifest[fn] {
			t.Errorf("%s is annotated //automon:statepure but missing from the manifest in dataflow_test.go", fn)
		}
	}
}

// TestLockorderRealGraphAcyclic proves the real acquisition graph acyclic
// with suppression disabled: unlike TestRepoIsLintClean, a waiver could not
// hide a cycle here. The pass runs with an empty allow index so nothing is
// pruned or filtered.
func TestLockorderRealGraphAcyclic(t *testing.T) {
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	var raw []Diagnostic
	pass := &Pass{Fset: mod.Fset, Pkgs: mod.Pkgs, analyzer: Lockorder, allows: make(allowIndex), diags: &raw}
	if err := Lockorder.Run(pass); err != nil {
		t.Fatal(err)
	}
	for _, d := range raw {
		t.Errorf("lock-order violation in the real tree (waivers disabled): %s", d)
	}
}

// TestDataflowDiagnosticsOrderInvariant pins summary determinism: the same
// module analyzed with the package list and the analyzer list reversed must
// report the identical diagnostics. The call graph's position-sorted order
// and the harness's final sort make the output a pure function of the
// source, not of traversal order.
func TestDataflowDiagnosticsOrderInvariant(t *testing.T) {
	dir := filepath.Join("testdata", "src", "floatflowtree")
	mod, err := LoadFixtureTree(dir, "fixture/floatflow")
	if err != nil {
		t.Fatal(err)
	}
	suite := []*Analyzer{Statepure, Lockorder, Floatflow}
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
