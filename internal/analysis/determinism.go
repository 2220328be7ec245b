package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism guards the bit-reproducibility of the protocol and experiment
// pipeline: the float64 outputs of the deterministic packages (core,
// optimize, experiments) — thresholds, zone parameters, figure CSVs — must
// be identical run to run and at any worker count. Every function of those
// packages is a root of the shared call graph (summary.go), and anywhere in
// the static closure of those roots the pass reports
//
//   - map iteration whose result depends on the order (the sorted-keys and
//     keyed-copy idioms are recognized as order-insensitive),
//   - selects that race two or more non-timeout channels,
//   - draws from the global math/rand source or crypto/rand (seeded
//     constructors rand.New(rand.NewSource(seed)) remain fine),
//
// and, inside the deterministic packages only, wall-clock reads
// (time.Now/Since/Until). A racy select three calls below fullSync breaks
// the contract exactly as surely as one inside it; a timestamp taken by an
// obs helper the protocol calls does not decide any protocol value.
//
// A second, module-wide rule guards the sinks directly: an argument to a
// metric update (obs Inc/Add/Set/Observe) or a csv.Writer write whose value
// is computed by a function with a nondeterministic call closure is
// reported at the sink, wherever the sink lives.
//
// Interface and function-value calls are opaque: NodeComm hides the
// transport's event races from the protocol by design, and the
// scheduler order of delivery is the monitoring problem itself. A waived
// call site prunes the traversal, like hotpath: the waiver's reason covers
// the subtree behind it.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "code reachable from core/optimize/experiments must not leak map order, channel races or global rand, those packages must not read wall clocks, and no such value may reach a metric/CSV sink",
	Run:  runDeterminism,
}

// deterministicPkgSuffixes selects the packages under the determinism
// contract by import-path suffix. Fixture packages opt in by ending their
// path the same way.
var deterministicPkgSuffixes = []string{
	"internal/core",
	"internal/optimize",
	"internal/experiments",
}

func isDeterministicPkg(path string) bool {
	for _, s := range deterministicPkgSuffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// seededRandConstructors are the math/rand entry points that build an
// explicitly seeded stream; everything else package-level draws from the
// shared global source.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// isTimeChan reports whether expr is a channel of time.Time — a timeout arm
// (time.After, Timer.C, Ticker.C), which a select may legitimately race
// against one real channel.
func isTimeChan(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	named, ok := ch.Elem().(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Time"
}

// commChannel extracts the channel expression of a select case, or nil for
// the default case.
func commChannel(clause *ast.CommClause) ast.Expr {
	switch s := clause.Comm.(type) {
	case *ast.SendStmt:
		return s.Chan
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok {
			return u.X
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); ok {
				return u.X
			}
		}
	}
	return nil
}

// orderInsensitiveBody recognizes the two map-range shapes whose result is
// independent of iteration order, so the sorted-keys fix idiom and plain
// re-keyed copies don't need suppressions:
//
//	for k := range m { keys = append(keys, k) }   // collect, then sort
//	for k, v := range m { m2[k] = f(v) }          // keyed write, commutative
//
// Anything else — appending values, emitting output, accumulating floats —
// stays a finding: those leak the iteration order into the result.
func orderInsensitiveBody(r *ast.RangeStmt) bool {
	if len(r.Body.List) != 1 {
		return false
	}
	assign, ok := r.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	keyID, _ := r.Key.(*ast.Ident)
	if keyID == nil || keyID.Name == "_" {
		return false
	}
	// keys = append(keys, k)
	if call, ok := assign.Rhs[0].(*ast.CallExpr); ok {
		if fun, ok := call.Fun.(*ast.Ident); ok && fun.Name == "append" && len(call.Args) == 2 {
			if arg, ok := call.Args[1].(*ast.Ident); ok && arg.Name == keyID.Name {
				return true
			}
		}
	}
	// m2[k] = rhs
	if ix, ok := assign.Lhs[0].(*ast.IndexExpr); ok && assign.Tok == token.ASSIGN {
		if idx, ok := ix.Index.(*ast.Ident); ok && idx.Name == keyID.Name {
			return true
		}
	}
	return false
}

func runDeterminism(p *Pass) error {
	cg := buildCallGraph(p)

	// Rule 1: reachability. Roots are every function of the deterministic
	// packages; every nondeterminism site in the reached closure is a
	// finding, and so is every clock read inside those packages.
	var roots []*types.Func
	for _, fn := range cg.order {
		if isDeterministicPkg(cg.funcs[fn].pkg.Path) {
			roots = append(roots, fn)
		}
	}
	reach := reachableFrom(p, cg, roots)
	for _, fn := range reach.order {
		inContract := isDeterministicPkg(cg.funcs[fn].pkg.Path)
		for _, site := range cg.summaries[fn].sites {
			if site.clock && !inContract {
				continue
			}
			p.Reportf(site.pos, "%s is reachable from the deterministic packages (%s); its outcome can leak into protocol output",
				site.what, reach.chain(cg, fn))
		}
	}

	// Rule 2: sinks. A call computing a sink argument with nondeterminism in
	// its call closure is a finding at the sink call.
	tainted := cg.tainted()
	for _, fn := range cg.order {
		body := cg.funcs[fn]
		info := body.pkg.Info
		ast.Inspect(body.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sink := sinkName(info, call)
			if sink == "" {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					inner, ok := a.(*ast.CallExpr)
					if !ok {
						return true
					}
					target := callee(info, inner)
					if target == nil {
						return true
					}
					if what, clock := classifyExternal(target); what != "" && !clock {
						p.Reportf(inner.Pos(), "%s flows into %s; the recorded value is nondeterministic", what, sink)
						return true
					}
					if tainted[target] {
						p.Reportf(inner.Pos(), "%s has nondeterminism in its call closure and flows into %s",
							cg.label(target), sink)
					}
					return true
				})
			}
			return true
		})
	}
	return nil
}

// sinkName classifies a call as a protocol-output sink: module obs metric
// updates and encoding/csv writes. Returns "" for everything else.
func sinkName(info *types.Info, call *ast.CallExpr) string {
	fn := callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	switch {
	case fn.Pkg().Path() == "encoding/csv":
		if fn.Name() == "Write" || fn.Name() == "WriteAll" {
			return "csv." + fn.Name()
		}
	case strings.HasSuffix(fn.Pkg().Path(), "internal/obs"):
		switch fn.Name() {
		case "Inc", "Add", "Set", "Observe":
			return "metric " + typeLabel(sig.Recv().Type()) + "." + fn.Name()
		}
	}
	return ""
}

// typeLabel renders a receiver type as pkgname.TypeName.
func typeLabel(t types.Type) string {
	for {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return obj.Name()
	}
	return t.String()
}
