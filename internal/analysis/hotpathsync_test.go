package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// hotpathManifest is the reviewed list of //automon:hotpath roots: the PR-3
// zero-allocation entry points of the monitoring loop, plus the interval
// eigen-engine's inner arithmetic (the per-node loops of the certified
// Hessian enclosure — pooled scratch, no per-op allocation), plus the
// ingestion layer's per-event step, whose static closure covers the sketch
// apply and the node's sparse step. Adding an annotation anywhere in the
// module without extending this list — or dropping one — is a deliberate
// decision this test forces into review.
var hotpathManifest = map[string]bool{
	"core.Node.UpdateData":          true,
	"core.Node.Check":               true,
	"core.Node.ApplySync":           true,
	"core.Node.ApplySlack":          true,
	"core.Fabric.RequestData":       true,
	"core.Node.UpdateDataRefresh":   true,
	"core.Node.UpdateElided":        true,
	"core.Node.UpdateSparse":        true,
	"core.Node.SpendBudget":         true,
	"core.SafeZone.ContainsScratch": true,
	"ingest.NodeIngestor.Ingest":    true,
	"autodiff.Graph.Value":          true,
	"autodiff.Graph.Grad":           true,
	"autodiff.Graph.Hessian":        true,
	"interval.Evaluator.hvpBasis":   true,
	"interval.ivalOp":               true,
	"interval.Interval.Add":         true,
	"interval.Interval.Sub":         true,
	"interval.Interval.Neg":         true,
	"interval.Interval.Mul":         true,
	"interval.Interval.Div":         true,
	"interval.Interval.Square":      true,
	"interval.Interval.Powi":        true,
	"interval.Interval.Exp":         true,
	"interval.Interval.Log":         true,
	"interval.Interval.Sqrt":        true,
	"interval.Interval.Tanh":        true,
	"interval.Interval.Sigmoid":     true,
	"interval.Interval.Relu":        true,
	"interval.Interval.Step":        true,
	"interval.Interval.Abs":         true,
	"interval.Interval.Sign":        true,
	"interval.Interval.Sin":         true,
	"interval.Interval.Cos":         true,
}

// annotatedHotpathFuncs parses every non-test file of the module and returns
// the set of //automon:hotpath-marked functions as "pkgname.Type.Method".
func annotatedHotpathFuncs(t *testing.T) map[string]bool {
	t.Helper()
	found := make(map[string]bool)
	walkModule(t, func(_ string, f *ast.File) {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && hasMarker(fd) {
				found[f.Name.Name+"."+declName(fd)] = true
			}
		}
	})
	return found
}

// TestHotpathAnnotationsMatchManifest requires the annotations in the source
// tree and the manifest above to be exactly the same set.
func TestHotpathAnnotationsMatchManifest(t *testing.T) {
	found := annotatedHotpathFuncs(t)
	for fn := range hotpathManifest {
		if !found[fn] {
			t.Errorf("%s is in the hotpath manifest but carries no //automon:hotpath annotation", fn)
		}
	}
	for fn := range found {
		if !hotpathManifest[fn] {
			t.Errorf("%s is annotated //automon:hotpath but missing from the manifest in hotpathsync_test.go", fn)
		}
	}
}

// TestAllocsPerRunTargetsAnnotated ties the static annotations to the runtime
// allocation tests: every method a testing.AllocsPerRun closure in
// internal/core/perf_test.go drives that names a manifest method must be an
// annotated hotpath root, so the two layers of the zero-alloc guarantee can
// never drift apart silently.
func TestAllocsPerRunTargetsAnnotated(t *testing.T) {
	manifestMethods := make(map[string]string) // method name → qualified entry
	for entry := range hotpathManifest {
		parts := strings.Split(entry, ".")
		manifestMethods[parts[len(parts)-1]] = entry
	}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "../core/perf_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "AllocsPerRun" || len(call.Args) != 2 {
			return true
		}
		fn, ok := call.Args[1].(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(fn, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok {
				if s, ok := c.Fun.(*ast.SelectorExpr); ok {
					targets = append(targets, s.Sel.Name)
				}
			}
			return true
		})
		return true
	})
	if len(targets) == 0 {
		t.Fatal("no testing.AllocsPerRun closures found in internal/core/perf_test.go; the regression link is vacuous")
	}

	annotated := annotatedHotpathFuncs(t)
	driven := 0
	for _, name := range targets {
		entry, inManifest := manifestMethods[name]
		if !inManifest {
			continue // helper calls inside the closure (t.Fatalf etc.)
		}
		driven++
		if !annotated[entry] {
			t.Errorf("AllocsPerRun drives %s but %s carries no //automon:hotpath annotation", name, entry)
		}
	}
	if driven == 0 {
		t.Error("AllocsPerRun closures drive no manifest method; update hotpathManifest or perf_test.go")
	}
}
