package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The in-process data plane exists once (ROADMAP aim 2): one type holds the
// coordinator's node table, one type is the in-memory fabric, one function
// builds a node's Sync. Each manifest below is the reviewed set of places a
// name may be declared; a second Ownership copy, a sixth pass-through
// NodeComm or a hand-built per-node Sync fails here and is forced into
// review, like a new //automon:hotpath root.
var (
	// Types that implement core.NodeComm: the shared in-memory fabric, the
	// socket transport, and the quickstart's teaching loop that shows an
	// application how to write one over its own byte-level fabric.
	requestDataManifest = []string{"core.Fabric", "main.loop", "transport.socketComm"}
	// Types that implement core.Ownership: the table and the shard router.
	rebalanceManifest = []string{"core.Partition", "shard.treeOwner"}
	// Struct types that store the coordinator's per-node table.
	tableManifest = []string{"core.Partition"}
	// Functions holding a Sync composite literal: the full sync's template
	// and the wire decoder. Every per-node Sync is a Sync.ForNode copy of the
	// template.
	syncLiteralManifest = []string{"core.Decode", "core.Machine.fullSync"}
)

// walkModule parses every non-test Go file of the root module (nested
// modules such as bench/ are their own programs) and calls visit per file.
func walkModule(t *testing.T, visit func(f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	root := "../.."
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil || skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		visit(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOneInProcessDataPlane(t *testing.T) {
	found := map[string]map[string]bool{"RequestData": {}, "Rebalance": {}, "table": {}, "Sync{}": {}}
	walkModule(t, func(f *ast.File) {
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && found[d.Name.Name] != nil {
					found[d.Name.Name][pkg+"."+strings.TrimSuffix(declName(d), "."+d.Name.Name)] = true
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if lit, ok := n.(*ast.CompositeLit); ok && typeNamed(lit.Type, "Sync") {
						found["Sync{}"][pkg+"."+declName(d)] = true
					}
					return true
				})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, name := range fld.Names {
							switch name.Name {
							case "lastX", "slacks", "matrixSent":
								found["table"][pkg+"."+ts.Name.Name] = true
							}
						}
					}
				}
			}
		}
	})
	for _, c := range []struct {
		what, key string
		want      []string
	}{
		{"types declaring RequestData (core.NodeComm implementations)", "RequestData", requestDataManifest},
		{"types declaring Rebalance (core.Ownership implementations)", "Rebalance", rebalanceManifest},
		{"struct types with a lastX/slacks/matrixSent field", "table", tableManifest},
		{"functions with a Sync composite literal", "Sync{}", syncLiteralManifest},
	} {
		var got []string
		for name := range found[c.key] {
			got = append(got, name)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n  got  %v\n  want %v (manifest in oneofeach_test.go)", c.what, got, c.want)
		}
	}
}

// typeNamed reports whether a composite literal's type is name or pkg.name.
func typeNamed(e ast.Expr, name string) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == name
	case *ast.SelectorExpr:
		return x.Sel.Name == name
	}
	return false
}
