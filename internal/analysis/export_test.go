package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// Loaders only the fixture tests use.

// LoadFixtureTree parses and type-checks a directory tree of fixture
// packages rooted at dir: the root directory (if it has Go files) becomes
// the package pkgBase, each subdirectory becomes pkgBase+"/"+<relative
// path>. Imports resolve within the tree first (so fixtures can exercise
// cross-package dataflow, e.g. a fake internal/core calling a helper
// package), then fall back to the standard library. Package-scoped rules
// key off the synthesized paths exactly as they do for the real module.
func LoadFixtureTree(dir, pkgBase string) (*Module, error) {
	mod, err := loadTree(dir, pkgBase)
	if err != nil {
		return nil, err
	}
	if len(mod.Pkgs) == 0 {
		return nil, fmt.Errorf("no Go packages under %s", dir)
	}
	return mod, nil
}

// LoadFixture parses and type-checks a single directory of Go files as the
// package pkgPath, resolving imports from the standard library only. It is
// the analysistest-style entry used by the fixture tests: pkgPath controls
// which package-scoped rules (e.g. the determinism package list) apply.
func LoadFixture(dir, pkgPath string) (*Module, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pkg, err := typeCheck(fset, pkgPath, files, newStdlibImporter(fset))
	if err != nil {
		return nil, err
	}
	return &Module{Fset: fset, Pkgs: []*Package{pkg}}, nil
}
