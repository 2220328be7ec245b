package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// stdlibImporter resolves non-module imports. It tries the gc (export-data)
// importer first and falls back to type-checking the standard library from
// source, so the suite works both on developer machines and in minimal CI
// images.
type stdlibImporter struct {
	fset  *token.FileSet
	gc    types.Importer
	src   types.Importer
	cache map[string]*types.Package
}

func newStdlibImporter(fset *token.FileSet) *stdlibImporter {
	return &stdlibImporter{fset: fset, cache: make(map[string]*types.Package)}
}

func (s *stdlibImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := s.cache[path]; ok {
		return pkg, nil
	}
	if s.gc == nil {
		s.gc = importer.ForCompiler(s.fset, "gc", nil)
	}
	pkg, err := s.gc.Import(path)
	if err != nil {
		if s.src == nil {
			s.src = importer.ForCompiler(s.fset, "source", nil)
		}
		pkg, err = s.src.Import(path)
	}
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	s.cache[path] = pkg
	return pkg, nil
}

// loader type-checks the module's packages in dependency order, sharing one
// FileSet and one stdlib importer so *types.Func identities line up across
// packages (the hotpath call graph depends on that).
type loader struct {
	fset    *token.FileSet
	root    string // absolute module root
	modPath string // module path from go.mod
	std     *stdlibImporter
	pkgs    map[string]*Package // import path → loaded package
	loading map[string]bool
	order   []*Package
}

// Import implements types.Importer over the chained local/stdlib resolution.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.std.Import(path)
}

// dirFor maps an import path to its directory under the module root.
func (l *loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// load parses and type-checks one module package (and, recursively, its
// module dependencies).
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("resolve %q: %w", path, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := typeCheck(l.fset, path, files, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.order = append(l.order, pkg)
	return pkg, nil
}

// typeCheck runs go/types over one package's files with full Info.
func typeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return &Package{Path: path, Pkg: tpkg, Info: info, Files: files}, nil
}

// modulePath extracts the module path from go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", root)
}

// skipDir reports whether a directory is outside the lintable module source:
// VCS metadata, testdata fixtures (including this package's analyzer
// fixtures, which intentionally violate the invariants), and result output.
func skipDir(name string) bool {
	return strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
		name == "testdata" || name == "results"
}

// LoadModule parses and type-checks every non-test package under root.
// Packages are returned in dependency order.
func LoadModule(root string) (*Module, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	return loadTree(root, modPath)
}

// loadTree type-checks the package tree rooted at dir: dir itself (if it
// has Go files) becomes the package modPath and each subdirectory
// modPath+"/"+<relative path>. Imports under modPath resolve within the
// tree, every other import from the standard library.
func loadTree(dir, modPath string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		root:    abs,
		modPath: modPath,
		std:     newStdlibImporter(fset),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}

	var paths []string
	err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if p != abs && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(p, 0); err != nil {
			if _, noGo := err.(*build.NoGoError); noGo {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(abs, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, modPath)
		} else {
			paths = append(paths, modPath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return nil, err
		}
	}
	return &Module{Fset: fset, Pkgs: l.order}, nil
}
