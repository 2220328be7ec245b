package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// summary.go is the interprocedural layer under determinism: a module-wide
// call graph keyed by the shared *types.Func identities the loader
// guarantees, with a per-function summary of nondeterminism and clock sites
// computed from one AST walk. The analyzer combines the summaries bottom-up
// (the tainted fixpoint) and top-down (reachableFrom BFS, which prunes at
// //automon:allow-waived call sites exactly like hotpath does).
//
// Calls through function values and interface methods are opaque: nothing
// propagates across them. That is a deliberate contract, not a soundness
// hole — NodeComm is exactly the dependency-injection seam the protocol
// must not see through, and the delivery-order races behind it are the
// monitoring problem itself.

// effectSite is one local occurrence of a nondeterminism source or a
// wall-clock read inside a function body.
type effectSite struct {
	pos  token.Pos
	what string // human-readable cause, e.g. "time.Now (wall clock)"
	// clock marks a wall-clock read: a finding only inside the
	// deterministic packages, and no taint for the sink rule.
	clock bool
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

// scanFunc computes the local summary of one function body. Nested
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
			if what, clock := classifyExternal(fn); what != "" {
				s.sites = append(s.sites, effectSite{pos: n.Pos(), what: what, clock: clock})
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !orderInsensitiveBody(n) {
					s.sites = append(s.sites, effectSite{pos: n.Pos(), what: "order-sensitive map iteration"})
				}
			}
		case *ast.SelectStmt:
			real := 0
			for _, c := range n.Body.List {
				clause := c.(*ast.CommClause)
				if clause.Comm == nil {
					continue // default case
				}
				if ch := commChannel(clause); ch != nil && isTimeChan(info, ch) {
					continue // timeout arm
				}
				real++
			}
			if real >= 2 {
				s.sites = append(s.sites, effectSite{pos: n.Pos(), what: fmt.Sprintf("select racing %d channels", real)})
			}
		}
		return true
	})
	return s
}

// clockFuncs are the time-package functions that read the wall clock.
// Timers and sleeps schedule against it but return nothing a result could
// depend on; pure arithmetic (Duration math, Parse, Unix) is effect-free.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// classifyExternal describes a call outside the module that is a
// nondeterminism source or a clock read, or returns "" for every other
// call (strings, sort, math, strconv, errors, …).
func classifyExternal(fn *types.Func) (what string, clock bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	pkgLevel := ok && sig.Recv() == nil
	qual := pkg.Name() + "." + fn.Name()
	switch pkg.Path() {
	case "time":
		if pkgLevel && clockFuncs[fn.Name()] {
			return qual + " (wall clock)", true
		}
	case "math/rand", "math/rand/v2":
		if pkgLevel && !seededRandConstructors[fn.Name()] {
			return qual + " (global source)", false
		}
	case "crypto/rand":
		return qual + " (OS entropy)", false
	}
	return "", false
}

// tainted folds every function's nondeterminism sites with its callees'
// via a fixpoint over the call graph: true when the function's full static
// closure holds a source. Recursive cycles converge because a function only
// ever turns from false to true.
func (cg *callGraph) tainted() map[*types.Func]bool {
	t := make(map[*types.Func]bool, len(cg.order))
	for _, fn := range cg.order {
		for _, site := range cg.summaries[fn].sites {
			if !site.clock {
				t[fn] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range cg.order {
			if t[fn] {
				continue
			}
			for _, c := range cg.summaries[fn].calls {
				if t[c.fn] {
					t[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return t
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
