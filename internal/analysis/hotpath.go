package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath proves the PR-3 zero-allocation invariant at compile time: every
// function annotated //automon:hotpath — and every module function statically
// reachable from one — may not allocate (make/new/append, composite literals
// that escape, closures, goroutines), may not box a []float64 into an
// interface, and may not acquire a mutex. The runtime AllocsPerRun tests
// sample two entry points on the configurations they happen to drive; this
// analyzer covers the whole static call closure on every build.
//
// Deliberate exceptions (violation paths that build a message, pool-miss
// allocations, opt-in custom zones) carry //automon:allow hotpath directives
// with reasons; a suppressed call site also prunes the traversal, so a waived
// branch does not drag its callees into the hot closure.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "functions marked //automon:hotpath and their static callees must be allocation-free, box-free and lock-free",
	Run:  runHotpath,
}

const hotpathMarker = "//automon:hotpath"

// funcBody ties a module function to its declaration for traversal.
type funcBody struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// declName renders Type.Method or Func for diagnostics.
func declName(decl *ast.FuncDecl) string {
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		t := decl.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + decl.Name.Name
		}
		if ix, ok := t.(*ast.IndexExpr); ok {
			if id, ok := ix.X.(*ast.Ident); ok {
				return id.Name + "." + decl.Name.Name
			}
		}
	}
	return decl.Name.Name
}

// hasMarker reports whether the declaration's doc comment carries the
// //automon:hotpath directive.
func hasMarker(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if c.Text == hotpathMarker {
			return true
		}
	}
	return false
}

// indexFuncs maps every module function object to its body.
func indexFuncs(p *Pass) map[*types.Func]funcBody {
	idx := make(map[*types.Func]funcBody)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok {
					idx[fn] = funcBody{pkg: pkg, decl: decl}
				}
			}
		}
	}
	return idx
}

// callee resolves the static *types.Func a call expression targets, or nil
// for builtins, conversions, function values and interface methods.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isFloatSlice reports whether t is []float64 (possibly behind a named type).
func isFloatSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

// isMutexLock reports whether fn is a lock acquisition on a sync primitive.
func isMutexLock(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return true
	}
	return false
}

func runHotpath(p *Pass) error {
	funcs := indexFuncs(p)

	type workItem struct {
		fn   *types.Func
		root string
	}
	var work []workItem
	for fn, body := range funcs {
		if hasMarker(body.decl) {
			work = append(work, workItem{fn, body.pkg.Pkg.Name() + "." + declName(body.decl)})
		}
	}

	visited := make(map[*types.Func]bool)
	for len(work) > 0 {
		item := work[0]
		work = work[1:]
		if visited[item.fn] {
			continue
		}
		visited[item.fn] = true
		body, ok := funcs[item.fn]
		if !ok {
			continue
		}
		info := body.pkg.Info
		where := declName(body.decl)

		report := func(pos token.Pos, format string, args ...any) {
			args = append(args, where, item.root)
			p.Reportf(pos, format+" in %s (hot path via //automon:hotpath %s)", args...)
		}

		ast.Inspect(body.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if p.Suppressed(n.Pos()) {
					return false // waived call sites prune the traversal
				}
				// Builtin allocators.
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
						switch id.Name {
						case "make":
							report(n.Pos(), "make allocates")
						case "new":
							report(n.Pos(), "new allocates")
						case "append":
							report(n.Pos(), "append may grow its backing array")
						}
						return true
					}
				}
				// Conversions that box a float slice.
				if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
					if _, isIface := tv.Type.Underlying().(*types.Interface); isIface && len(n.Args) == 1 {
						if at, ok := info.Types[n.Args[0]]; ok && isFloatSlice(at.Type) {
							report(n.Pos(), "conversion boxes []float64 into an interface")
						}
					}
					return true
				}
				fn := callee(info, n)
				if fn == nil {
					report(n.Pos(), "call through a function value or interface cannot be proven allocation-free")
					return true
				}
				if isMutexLock(fn) {
					report(n.Pos(), "%s acquires a lock", fn.FullName())
				}
				// Arguments boxed into interface parameters.
				if sig, ok := fn.Type().(*types.Signature); ok {
					checkBoxedArgs(report, info, n, sig)
				}
				if _, inModule := funcs[fn]; inModule && !visited[fn] {
					work = append(work, workItem{fn, item.root})
				}
			case *ast.CompositeLit:
				if p.Suppressed(n.Pos()) {
					return false
				}
				switch info.Types[n].Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(n.Pos(), "composite literal allocates a %s", "slice or map")
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && !p.Suppressed(n.Pos()) {
						report(n.Pos(), "&composite literal escapes to the heap")
					}
				}
			case *ast.FuncLit:
				if p.Suppressed(n.Pos()) {
					return false
				}
				report(n.Pos(), "function literal allocates a closure")
				return false
			case *ast.GoStmt:
				if !p.Suppressed(n.Pos()) {
					report(n.Pos(), "go statement spawns a goroutine")
				}
			}
			return true
		})
	}
	return nil
}

// checkBoxedArgs flags arguments whose static type is []float64 passed to
// interface-typed parameters (including variadic ...any), the exact boxing
// the PR-3 pool design eliminated by storing *[]float64.
func checkBoxedArgs(report func(token.Pos, string, ...any), info *types.Info, call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range call.Args {
		at, ok := info.Types[arg]
		if !ok || !isFloatSlice(at.Type) {
			continue
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passed as a whole slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); isIface {
			report(arg.Pos(), "[]float64 argument is boxed into an interface parameter")
		}
	}
}
