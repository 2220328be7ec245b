package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
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

// The socket half (ISSUE 21): one elided node step, one wire.
var (
	// Functions that debit an elision budget: the one vector-backed step
	// (Group.Update and transport.NodeClient both call it) and the
	// sketch-backed ingestor, whose movement bound comes from the sketch. A
	// third hand-written spend-or-check sequence fails here.
	spendBudgetManifest = []string{"core.Node.UpdateElided", "ingest.NodeIngestor.Ingest"}
	// Functions in internal/transport that write a length word: the frame's
	// tagged first word and the per-message sub-length inside a batch body.
	// A second framing needs a second first-word writer.
	frameWordManifest = []string{"transport.frameWriter.flushLocked"}
	subLengthManifest = []string{"transport.frameWriter.writeMsg"}
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
	expectManifest(t, "types declaring RequestData (core.NodeComm implementations)", found["RequestData"], requestDataManifest)
	expectManifest(t, "types declaring Rebalance (core.Ownership implementations)", found["Rebalance"], rebalanceManifest)
	expectManifest(t, "struct types with a lastX/slacks/matrixSent field", found["table"], tableManifest)
	expectManifest(t, "functions with a Sync composite literal", found["Sync{}"], syncLiteralManifest)
}

// expectManifest fails unless the names found are exactly the reviewed set.
func expectManifest(t *testing.T, what string, found map[string]bool, want []string) {
	t.Helper()
	var got []string
	for name := range found {
		got = append(got, name)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n  got  %v\n  want %v (manifest in oneofeach_test.go)", what, got, want)
	}
}

// mentions reports whether the subtree uses an identifier called name.
func mentions(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

func TestOneWireOneElidedStep(t *testing.T) {
	found := map[string]map[string]bool{"SpendBudget": {}, "frame word": {}, "sub-length": {}}
	v1 := regexp.MustCompile(`(?i)v1`)
	walkModule(t, func(f *ast.File) {
		pkg := f.Name.Name
		wire := pkg == "transport" || pkg == "chaos"
		if wire {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && v1.MatchString(id.Name) {
					t.Errorf("%s: identifier %s names a wire version; there is one wire", pkg, id.Name)
				}
				return true
			})
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch {
				case sel.Sel.Name == "SpendBudget":
					found["SpendBudget"][pkg+"."+declName(d)] = true
				case wire && sel.Sel.Name == "PutUint32" && mentions(call, "batchTag"):
					found["frame word"][pkg+"."+declName(d)] = true
				case wire && sel.Sel.Name == "PutUint32":
					found["sub-length"][pkg+"."+declName(d)] = true
				}
				return true
			})
		}
	})
	expectManifest(t, "functions calling (*core.Node).SpendBudget", found["SpendBudget"], spendBudgetManifest)
	expectManifest(t, "transport functions writing a frame's first word", found["frame word"], frameWordManifest)
	expectManifest(t, "transport functions writing any other length word", found["sub-length"], subLengthManifest)
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
