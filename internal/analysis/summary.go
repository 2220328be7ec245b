package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// summary.go is the interprocedural layer under statepure, lockorder and
// floatflow: a module-wide call graph keyed by the shared
// *types.Func identities the loader guarantees, with a per-function effect
// summary computed from one AST walk. Analyzers combine the summaries
// bottom-up (totalEffects fixpoint) or top-down (reachableFrom BFS, which
// prunes at //automon:allow-waived call sites exactly like hotpath does).
//
// Calls through function values and interface methods are opaque: no effect
// propagates across them. That is a deliberate contract, not a soundness
// hole — NodeComm is exactly the dependency-injection seam the statepure
// boundary must not see through, and the routing layer behind it is where
// the effects are supposed to live.

// effect is the effect lattice: a bitmask ordered by set inclusion, joined
// with |. Each bit is one observable behavior the analyzers care about.
type effect uint8

const (
	// effIO: file, network or terminal I/O (os, net, io writers, fmt prints).
	effIO effect = 1 << iota
	// effClock: reads or schedules against the wall clock (time package).
	effClock
	// effRand: draws from a global or OS entropy source (unseeded math/rand,
	// crypto/rand).
	effRand
	// effSpawn: starts a goroutine (go statement, time.AfterFunc).
	effSpawn
	// effGlobalWrite: assigns through a package-level variable.
	effGlobalWrite
	// effNondetOrder: result depends on scheduler or map-iteration order
	// (order-sensitive map range, select racing ≥2 non-timeout channels).
	effNondetOrder
)

// effectSite is one local occurrence of an effect inside a function body.
type effectSite struct {
	pos  token.Pos
	eff  effect
	what string // human-readable cause, e.g. "time.Now" or "go statement"
}

// callSite is one statically resolved module-internal call.
type callSite struct {
	pos token.Pos
	fn  *types.Func
}

// funcSummary is the per-function result of the effect scan.
type funcSummary struct {
	sites []effectSite
	calls []callSite
}

// callGraph ties every module function to its body and summary. order is
// position-sorted so every fixpoint and BFS below is deterministic
// regardless of map iteration or package load order.
type callGraph struct {
	funcs     map[*types.Func]funcBody
	summaries map[*types.Func]*funcSummary
	order     []*types.Func
}

// buildCallGraph scans every module function once and assembles the graph.
func buildCallGraph(p *Pass) *callGraph {
	cg := &callGraph{
		funcs:     indexFuncs(p),
		summaries: make(map[*types.Func]*funcSummary),
	}
	for fn := range cg.funcs {
		cg.order = append(cg.order, fn)
	}
	sort.Slice(cg.order, func(i, j int) bool {
		a := p.Fset.Position(cg.order[i].Pos())
		b := p.Fset.Position(cg.order[j].Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	for _, fn := range cg.order {
		body := cg.funcs[fn]
		cg.summaries[fn] = scanFunc(body, cg.funcs)
	}
	return cg
}

// label renders a function as pkgname.Type.Method for diagnostics.
func (cg *callGraph) label(fn *types.Func) string {
	if body, ok := cg.funcs[fn]; ok {
		return body.pkg.Pkg.Name() + "." + declName(body.decl)
	}
	return fn.FullName()
}

// scanFunc computes the local effect summary of one function body. Nested
// function literals are attributed to the enclosing function: a closure's
// effects happen on behalf of whoever defined it.
func scanFunc(body funcBody, funcs map[*types.Func]funcBody) *funcSummary {
	info := body.pkg.Info
	s := &funcSummary{}
	ast.Inspect(body.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := callee(info, n)
			if fn == nil {
				return true // builtin, conversion, func value or interface: opaque
			}
			if _, inModule := funcs[fn]; inModule {
				s.calls = append(s.calls, callSite{pos: n.Pos(), fn: fn})
				return true
			}
			if eff, what := classifyExternal(fn); eff != 0 {
				s.sites = append(s.sites, effectSite{pos: n.Pos(), eff: eff, what: what})
			}
		case *ast.GoStmt:
			s.sites = append(s.sites, effectSite{pos: n.Pos(), eff: effSpawn, what: "go statement"})
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := packageLevelTarget(info, lhs); v != nil {
					s.sites = append(s.sites, effectSite{pos: lhs.Pos(), eff: effGlobalWrite,
						what: fmt.Sprintf("write to package-level %s.%s", v.Pkg().Name(), v.Name())})
				}
			}
		case *ast.IncDecStmt:
			if v := packageLevelTarget(info, n.X); v != nil {
				s.sites = append(s.sites, effectSite{pos: n.Pos(), eff: effGlobalWrite,
					what: fmt.Sprintf("write to package-level %s.%s", v.Pkg().Name(), v.Name())})
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !orderInsensitiveBody(n) {
					s.sites = append(s.sites, effectSite{pos: n.Pos(), eff: effNondetOrder,
						what: "order-sensitive map iteration"})
				}
			}
		case *ast.SelectStmt:
			real := 0
			for _, c := range n.Body.List {
				clause := c.(*ast.CommClause)
				if clause.Comm == nil {
					continue
				}
				if ch := commChannel(clause); ch != nil && isTimeChan(info, ch) {
					continue
				}
				real++
			}
			if real >= 2 {
				s.sites = append(s.sites, effectSite{pos: n.Pos(), eff: effNondetOrder,
					what: fmt.Sprintf("select racing %d channels", real)})
			}
		}
		return true
	})
	return s
}

// ioPkgs are the external packages whose calls count as I/O wholesale.
var ioPkgs = map[string]bool{
	"os": true, "os/exec": true, "os/signal": true,
	"net": true, "net/http": true, "syscall": true,
	"io": true, "io/fs": true, "io/ioutil": true, "bufio": true,
	"encoding/csv": true, "database/sql": true, "log": true,
}

// clockFuncs are the time-package entry points that read or schedule
// against the wall clock. Pure arithmetic (time.Duration math, Parse,
// Unix construction) stays effect-free.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// classifyExternal assigns effects to a call outside the module. Unlisted
// packages (strings, sort, math, strconv, errors, …) are effect-free.
func classifyExternal(fn *types.Func) (effect, string) {
	pkg := fn.Pkg()
	if pkg == nil {
		return 0, ""
	}
	qual := pkg.Name() + "." + fn.Name()
	switch path := pkg.Path(); path {
	case "time":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil && clockFuncs[fn.Name()] {
			if fn.Name() == "AfterFunc" {
				return effClock | effSpawn, qual
			}
			return effClock, qual
		}
	case "math/rand", "math/rand/v2":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil &&
			!seededRandConstructors[fn.Name()] {
			return effRand | effNondetOrder, qual + " (global source)"
		}
	case "crypto/rand":
		return effRand | effNondetOrder, qual + " (OS entropy)"
	case "fmt":
		switch {
		case strings.HasPrefix(fn.Name(), "Print"),
			strings.HasPrefix(fn.Name(), "Fprint"),
			strings.HasPrefix(fn.Name(), "Scan"),
			strings.HasPrefix(fn.Name(), "Fscan"):
			return effIO, qual
		}
	default:
		if ioPkgs[path] {
			return effIO, qual
		}
	}
	return 0, ""
}

// packageLevelTarget resolves an assignment target to the package-level
// variable it writes through, or nil for locals, fields of locals and
// blank assignments. Writes through a dereferenced local pointer are not
// tracked — passing a pointer to global state across a function boundary
// is already a module-internal call the summaries follow.
func packageLevelTarget(info *types.Info, expr ast.Expr) *types.Var {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				obj = info.Defs[e]
			}
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					if v, ok := info.Uses[e.Sel].(*types.Var); ok {
						return v
					}
					return nil
				}
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			return nil // deref of a pointer value: target identity unknown
		default:
			return nil
		}
	}
}

// totalEffects folds every function's local effects with its callees' via a
// fixpoint over the call graph, giving the full transitive effect mask.
// Recursive cycles converge because the lattice is finite and join-monotone.
func (cg *callGraph) totalEffects() map[*types.Func]effect {
	total := make(map[*types.Func]effect, len(cg.order))
	for _, fn := range cg.order {
		var e effect
		for _, site := range cg.summaries[fn].sites {
			e |= site.eff
		}
		total[fn] = e
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range cg.order {
			e := total[fn]
			for _, c := range cg.summaries[fn].calls {
				e |= total[c.fn]
			}
			if e != total[fn] {
				total[fn] = e
				changed = true
			}
		}
	}
	return total
}

// reachResult is the output of a top-down reachability BFS: the functions
// reachable from a root set, each with the call-site parent that first
// reached it, for rendering "via" chains in diagnostics.
type reachResult struct {
	order  []*types.Func // visit order, deterministic
	parent map[*types.Func]*types.Func
	root   map[*types.Func]*types.Func
}

// reachableFrom walks the call graph from roots. A call site waived for the
// running analyzer prunes the edge, mirroring hotpath's rule: a deliberate
// waiver covers the subtree behind it, not just the line.
func reachableFrom(p *Pass, cg *callGraph, roots []*types.Func) *reachResult {
	r := &reachResult{
		parent: make(map[*types.Func]*types.Func),
		root:   make(map[*types.Func]*types.Func),
	}
	type item struct{ fn, parent, root *types.Func }
	var queue []item
	for _, fn := range roots {
		queue = append(queue, item{fn: fn, root: fn})
	}
	visited := make(map[*types.Func]bool)
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if visited[it.fn] {
			continue
		}
		visited[it.fn] = true
		r.order = append(r.order, it.fn)
		r.parent[it.fn] = it.parent
		r.root[it.fn] = it.root
		sum, ok := cg.summaries[it.fn]
		if !ok {
			continue
		}
		for _, c := range sum.calls {
			if visited[c.fn] || p.Suppressed(c.pos) {
				continue
			}
			queue = append(queue, item{fn: c.fn, parent: it.fn, root: it.root})
		}
	}
	return r
}

// chain renders the call path from a function back to its root, capped so
// diagnostics stay one line.
func (r *reachResult) chain(cg *callGraph, fn *types.Func) string {
	var hops []string
	for cur := fn; cur != nil; cur = r.parent[cur] {
		hops = append(hops, cg.label(cur))
		if len(hops) >= 5 && r.parent[cur] != nil {
			hops = append(hops, "…", cg.label(r.root[fn]))
			break
		}
	}
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	return strings.Join(hops, " → ")
}
