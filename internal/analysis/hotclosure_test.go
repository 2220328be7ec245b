package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// hotClosure walks the static call graph from every //automon:hotpath root —
// the same traversal runHotpath performs, including suppression pruning at
// waived call sites — and returns the set of module functions it reaches.
func hotClosure(mod *Module) map[*types.Func]bool {
	pass := &Pass{Fset: mod.Fset, Pkgs: mod.Pkgs, analyzer: Hotpath}
	pass.allows, _ = collectAllows(mod, map[string]bool{Hotpath.Name: true})
	funcs := indexFuncs(pass)

	var work []*types.Func
	for fn, body := range funcs {
		if hasMarker(body.decl) {
			work = append(work, fn)
		}
	}
	visited := make(map[*types.Func]bool)
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		if visited[fn] {
			continue
		}
		visited[fn] = true
		body, ok := funcs[fn]
		if !ok {
			continue
		}
		ast.Inspect(body.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pass.Suppressed(call.Pos()) {
				return false
			}
			if target := callee(body.pkg.Info, call); target != nil {
				if _, inModule := funcs[target]; inModule && !visited[target] {
					work = append(work, target)
				}
			}
			return true
		})
	}
	return visited
}

// TestRadiusControllerOutsideHotClosure proves the adaptive radius controller
// never rides the zero-allocation monitoring loop: no function declared in
// internal/core/radius.go — and none of the Algorithm-2 tuning machinery the
// controller's re-tunes invoke — is statically reachable from any
// //automon:hotpath root. The controller runs only on the coordinator's
// violation path (which already allocates by design), so its EWMAs, window
// snapshots, and Tune replays cannot tax the per-sample node loop.
func TestRadiusControllerOutsideHotClosure(t *testing.T) {
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	closure := hotClosure(mod)
	if len(closure) == 0 {
		t.Fatal("hot closure is empty; the traversal is vacuous")
	}

	// A renamed or deleted function would silently drop out of the check, so
	// every listed name must still be declared in internal/core.
	tuning := map[string]bool{"Tune": true, "Replay": true, "tuneWaves": true,
		"retune": true, "maybeRetune": true, "applyPending": true}
	declared := map[string]bool{}
	for _, pkg := range mod.Pkgs {
		if pkg.Path != "automon/internal/core" {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					declared[fd.Name.Name] = true
				}
			}
		}
	}
	for name := range tuning {
		if !declared[name] {
			t.Errorf("tuning machinery %q is not a function in internal/core; update the list", name)
		}
	}

	sawRoot := false
	for fn := range closure {
		pos := mod.Fset.Position(fn.Pos())
		if filepath.Base(pos.Filename) == "radius.go" &&
			strings.Contains(pos.Filename, filepath.Join("internal", "core")) {
			t.Errorf("hot closure reaches %s (declared in %s): the adaptive controller must stay off the hot path",
				fn.FullName(), pos.Filename)
		}
		if tuning[fn.Name()] && strings.HasPrefix(fn.FullName(), "automon/internal/core.") {
			t.Errorf("hot closure reaches the tuning machinery via %s", fn.FullName())
		}
		if fn.Name() == "UpdateData" {
			sawRoot = true
		}
	}
	if !sawRoot {
		t.Error("hot closure misses core.Node.UpdateData; the root set is wrong")
	}
}
