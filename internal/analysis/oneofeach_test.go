package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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

// One membership path for the root Machine: node state has one owner per
// deployment, entered through two membership transitions.
var (
	// Structs embedding the protocol machine: the flat coordinator over one
	// Partition and the shard tree over its leaves. A third wrapper that
	// mirrors the machine's surface fails here.
	machineEmbedManifest = []string{"core.Coordinator", "shard.Tree"}
	// Declarations mentioning sync.Mutex or sync.RWMutex in internal/core and
	// internal/shard: none. Each state machine is single-threaded behind the
	// transport that serializes it.
	protocolMutexManifest []string
	// Functions calling Ownership.Forget, outside the Forget implementations
	// themselves: a death and a rejoin's readmit.
	forgetManifest = []string{"core.Machine.MarkDead", "core.Machine.readmit"}
	// Machine methods that run a full sync.
	fullSyncCallerManifest = []string{
		"core.Machine.HandleDeparture", "core.Machine.HandleRejoin", "core.Machine.HandleViolation",
		"core.Machine.Init", "core.Machine.Resync",
	}
	// Functions in internal/transport calling a Machine transition (Init,
	// HandleViolation, HandleDeparture, HandleRejoin): the dispatch loop
	// and the two helpers only it calls, so one goroutine owns each socket
	// Machine. register, handleNewConn and serveConn only hand the loop an
	// event; one of them driving the machine would need a lock again.
	transitionCallerManifest = []string{
		"transport.Coordinator.admit", "transport.Coordinator.dispatch", "transport.Coordinator.handleDead",
	}
)

// walkModule parses every non-test Go file of the root module (nested
// modules such as bench/ are their own programs) and calls visit per file
// with its path relative to the module root.
func walkModule(t *testing.T, visit func(path string, f *ast.File)) {
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
		visit(filepath.ToSlash(strings.TrimPrefix(p, root+"/")), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOneInProcessDataPlane(t *testing.T) {
	found := map[string]map[string]bool{"RequestData": {}, "Rebalance": {}, "table": {}, "Sync{}": {}}
	walkModule(t, func(_ string, f *ast.File) {
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
	walkModule(t, func(_ string, f *ast.File) {
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

func TestOneMembershipPath(t *testing.T) {
	found := map[string]map[string]bool{"embed": {}, "mutex": {}, "Forget": {}, "fullSync": {}, "transition": {}}
	transitions := map[string]bool{"Init": true, "HandleViolation": true, "HandleDeparture": true, "HandleRejoin": true}
	// Calls of the loop's helpers, by caller, and what transport spawns.
	helperCallers, spawned := map[string]bool{}, map[string]bool{}
	methods := map[string]map[string]bool{"core.Machine": {}, "shard.Tree": {}}
	walkModule(t, func(path string, f *ast.File) {
		pkg := f.Name.Name
		dir := filepath.Dir(path)
		protocol := dir == "internal/core" || dir == "internal/shard"
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := pkg + "." + declName(d)
				if recv := strings.TrimSuffix(name, "."+d.Name.Name); d.Recv != nil && methods[recv] != nil {
					methods[recv][d.Name.Name] = true
				}
				if protocol && mentionsMutex(d) {
					found["mutex"][name] = true
				}
				switch name {
				case "core.Machine.pickLRU":
					if d.Type.Params.NumFields() != 0 {
						t.Error("core.Machine.pickLRU takes arguments; the first live node in the LRU order is the pick")
					}
				case "core.Machine.touchLRU":
					ast.Inspect(d.Body, func(n ast.Node) bool {
						switch n.(type) {
						case *ast.ForStmt, *ast.RangeStmt:
							t.Error("core.Machine.touchLRU loops; touching a node is an O(1) relink")
						}
						return true
					})
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok && dir == "internal/transport" {
						if sel, ok := g.Call.Fun.(*ast.SelectorExpr); ok {
							spawned[sel.Sel.Name] = true
						}
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					switch {
					case !ok:
					case sel.Sel.Name == "Forget" && d.Name.Name != "Forget":
						found["Forget"][name] = true
					case sel.Sel.Name == "fullSync" && strings.HasPrefix(name, "core.Machine."):
						found["fullSync"][name] = true
					case dir != "internal/transport":
					case transitions[sel.Sel.Name]:
						found["transition"][name] = true
					case sel.Sel.Name == "admit" || sel.Sel.Name == "handleDead":
						helperCallers[name] = true
					}
					return true
				})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var name string
					switch s := spec.(type) {
					case *ast.TypeSpec:
						name = s.Name.Name
					case *ast.ValueSpec:
						name = s.Names[0].Name
					}
					if protocol && mentionsMutex(spec) {
						found["mutex"][pkg+"."+name] = true
					}
					if ts, ok := spec.(*ast.TypeSpec); ok && embedsMachine(ts) {
						found["embed"][pkg+"."+name] = true
					}
				}
			}
		}
	})
	expectManifest(t, "struct types embedding *core.Machine", found["embed"], machineEmbedManifest)
	expectManifest(t, "internal/core and internal/shard declarations holding a sync mutex", found["mutex"], protocolMutexManifest)
	expectManifest(t, "functions calling Ownership.Forget outside a Forget implementation", found["Forget"], forgetManifest)
	expectManifest(t, "core.Machine methods calling fullSync", found["fullSync"], fullSyncCallerManifest)
	expectManifest(t, "internal/transport functions calling a Machine transition", found["transition"], transitionCallerManifest)
	expectManifest(t, "callers of the dispatch loop's transition helpers", helperCallers, []string{"transport.Coordinator.dispatch"})
	if spawned["admit"] || spawned["handleDead"] || !spawned["dispatch"] {
		t.Errorf("transport spawns %v; only dispatch may run the transitions, on its own goroutine", spawned)
	}
	for _, gone := range []string{"HandleSubtreeDeparture", "HandleSubtreeRejoin"} {
		if methods["core.Machine"][gone] {
			t.Errorf("core.Machine.%s is back; HandleDeparture and HandleRejoin take node sets", gone)
		}
	}
	for m := range methods["shard.Tree"] {
		if methods["core.Machine"][m] && m != "HandleViolation" {
			t.Errorf("shard.Tree re-declares Machine.%s; the embedded root machine's method is the tree's", m)
		}
	}
}

// TestOneZoneBuildPath pins the single ADCD-X zone build: every full sync
// runs the eigenvalue search, so internal/core declares nothing that caches
// or quantizes a decomposition, and nothing in the module touches the
// deprecated CoordStats.ZoneCacheHits beyond its declaration. Its one reader
// is bench/, a nested module walkModule skips.
func TestOneZoneBuildPath(t *testing.T) {
	cache := regexp.MustCompile(`(?i)zonecache|quantiz`)
	walkModule(t, func(path string, f *ast.File) {
		core := filepath.Dir(path) == "internal/core"
		var decl *ast.Ident // the deprecated field's own declaration
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Field:
				for _, id := range x.Names {
					if id.Name == "ZoneCacheHits" {
						decl = id
					}
				}
			case *ast.Ident:
				switch {
				case x == decl:
				case x.Name == "ZoneCacheHits":
					t.Errorf("%s uses CoordStats.ZoneCacheHits; no counter backs it", path)
				case core && cache.MatchString(x.Name):
					t.Errorf("%s declares or uses %s; ADCD-X zones are built, not cached", path, x.Name)
				}
			}
			return true
		})
	})
}

// TestSyncVectorsAreReadOnly guards the one set of zone vectors per full
// sync: the coordinator's zone lends its X0 and GradF0 to every Sync of the
// sync, and Node.ApplySync installs them without a copy, so in process one
// write would move every node's zone at once. The fields are found by type,
// so a write through any variable, embedding or package counts: an element
// assignment, an increment, a copy destination or an append target on the
// X0 or GradF0 field of core.Sync or core.SafeZone, anywhere in the module.
func TestSyncVectorsAreReadOnly(t *testing.T) {
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	shared := map[types.Object]string{}
	for _, p := range mod.Pkgs {
		if p.Path != "automon/internal/core" {
			continue
		}
		for _, name := range []string{"Sync", "SafeZone"} {
			st := p.Pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if fld := st.Field(i); fld.Name() == "X0" || fld.Name() == "GradF0" {
					shared[fld] = "core." + name + "." + fld.Name()
				}
			}
		}
	}
	if len(shared) != 4 {
		t.Fatalf("found %d of the four shared fields (core.Sync and core.SafeZone, X0 and GradF0)", len(shared))
	}
	for _, p := range mod.Pkgs {
		// field names the shared field a write goes into, through any
		// parentheses, index or slice expressions around its selector.
		field := func(e ast.Expr) string {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SliceExpr:
					e = x.X
				case *ast.SelectorExpr:
					return shared[p.Info.Uses[x.Sel]]
				default:
					return ""
				}
			}
		}
		write := func(n ast.Node, how string, target ast.Expr) {
			if name := field(target); name != "" {
				t.Errorf("%s: %s %s; the full sync's zone vectors are shared read-only", mod.Fset.Position(n.Pos()), how, name)
			}
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						if _, ok := lhs.(*ast.IndexExpr); ok {
							write(x, "assigns an element of", lhs)
						}
					}
				case *ast.IncDecStmt:
					if _, ok := x.X.(*ast.IndexExpr); ok {
						write(x, "increments an element of", x.X)
					}
				case *ast.CallExpr:
					id, ok := x.Fun.(*ast.Ident)
					if _, builtin := p.Info.Uses[id].(*types.Builtin); ok && builtin && len(x.Args) > 0 {
						switch id.Name {
						case "copy":
							write(x, "copies into", x.Args[0])
						case "append":
							write(x, "appends to", x.Args[0])
						}
					}
				}
				return true
			})
		}
	}
}

// mentionsMutex reports whether the subtree names sync.Mutex or sync.RWMutex.
func mentionsMutex(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex") {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sync" {
				found = true
			}
		}
		return !found
	})
	return found
}

// embedsMachine reports whether a struct type embeds *Machine or *core.Machine.
func embedsMachine(ts *ast.TypeSpec) bool {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return false
	}
	for _, fld := range st.Fields.List {
		if star, ok := fld.Type.(*ast.StarExpr); ok && len(fld.Names) == 0 && typeNamed(star.X, "Machine") {
			return true
		}
	}
	return false
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

// knobManifest is the reviewed set of options (ISSUE 22): every exported
// field of the option structs and every flag under cmd/, each with the reason
// it is an option and not a constant. The rule: a knob stays only if two
// non-test callers set different values, a paper figure or a recorded
// measurement varies it, the benchmark reads it, or it is a deployment
// setting (an address, a timeout, an output choice). A new field or flag
// fails TestKnobManifest until it is listed here with its reason.
var knobManifest = map[string]string{
	"core.Config.Epsilon":         "the user's input: the error bound ε",
	"core.Config.ErrorType":       "paper §2 defines both; the public API exports automon.Multiplicative",
	"core.Config.R":               "two live values: tuned by Tune, pinned by -r and FixedR workloads; paper Fig. 3 and 8",
	"core.Config.DisableADCD":     "paper Fig. 9 ablation",
	"core.Config.ForceADCDX":      "two live values: off, and on in experiments/adaptive.go (results/adaptive.csv)",
	"core.Config.DisableSlack":    "paper Fig. 9 ablation",
	"core.Config.DisableLazySync": "paper Fig. 9 ablation; shard.ModeAbsorb sets it on the root",
	"core.Config.RDoubleAfter":    "two live values: 5n default, 6 in experiments/adaptive.go (results/adaptive.csv)",
	"core.Config.RMax":            "two live values: derived default, -r-max on coordinator and sim",
	"core.Config.AdaptiveR":       "two live values: off by default, on in experiments/adaptive.go and behind -adaptive-r",
	"core.Config.Decomp":          "carries DecompOptions",
	"core.Config.MetricsLabels":   "deployment setting: per-group series in one registry",
	"core.Config.Metrics":         "deployment setting: where counters are scraped",
	"core.Config.Tracer":          "deployment setting: where events are recorded",
	"core.Config.ZoneBuilder":     "two live values: nil, and the Convex Bound baseline in internal/baselines",

	"core.DecompOptions.OptStarts":      "bench reads it; workloads set 1 or leave the default 2",
	"core.DecompOptions.OptMaxIter":     "bench reads it; workloads cap it per dimension",
	"core.DecompOptions.OptMaxFunEvals": "bench reads it; workloads cap it per dimension",
	"core.DecompOptions.Seed":           "reproducibility: every workload stamps its seed",
	"core.DecompOptions.Backend":        "three live values behind -eig-backend; bench reads BackendInterval/BackendHybrid",

	"optimize.Options.MaxIter":   "follows core.DecompOptions.OptMaxIter",
	"optimize.Options.MaxFunEva": "follows core.DecompOptions.OptMaxFunEvals",

	"transport.Options.Latency":              "deployment setting: -latency, paper §4.7 WAN runs",
	"transport.Options.DialTimeout":          "deployment setting",
	"transport.Options.RequestTimeout":       "deployment setting",
	"transport.Options.RegisterTimeout":      "deployment setting",
	"transport.Options.ResolveTimeout":       "deployment setting",
	"transport.Options.MaxReconnectAttempts": "deployment setting: -reconnect-attempts",
	"transport.Options.ReconnectBase":        "deployment setting: -reconnect-base",
	"transport.Options.Dial":                 "lets tests and the chaos injector substitute the network",
	"transport.Options.Group":                "deployment setting: which tenant a node joins",
	"transport.Options.Batch":                "carries BatchOptions; bench reads it",
	"transport.Options.Metrics":              "deployment setting; bench reads it",
	"transport.Options.Tracer":               "deployment setting",
	"transport.BatchOptions.MaxBytes":        "two live values: 0 (off) and 64 KiB in bench; -batch-bytes",
	"transport.BatchOptions.MaxDelay":        "two live values: 0 and 1–2 ms in bench and examples/wan; -batch-delay",

	"shard.Options.Shards": "the topology: leaf count; bench reads it",
	"shard.Options.Fanout": "the topology: tier width; bench reads it",
	"shard.Options.Mode":   "recorded measurement: on fleet-tree64 ModeAbsorb runs 3.08–3.13 M events/s against 2.55–2.59 M for ModeRoute with 13–14 % fewer messages, and gives up tree-equals-flat (EXPERIMENTS.md, 'One zone-build path'); bench reads it; -shard-absorb sets it",

	"ingest.Options.Elide": "two live values: results/sketch.csv compares elided and per-event; bench reads it",

	"sim.Config.F":             "the user's input: the function",
	"sim.Config.Data":          "the user's input: the stream",
	"sim.Config.Algorithm":     "paper Fig. 5: AutoMon against the baselines",
	"sim.Config.Core":          "carries core.Config",
	"sim.Config.Period":        "paper Fig. 5: the periodic baseline's sweep",
	"sim.Config.TuneRounds":    "two live values per workload: the tuning prefix length, 0 for pinned r",
	"sim.Config.Shards":        "the topology: -shards",
	"sim.Config.TreeFanout":    "the topology: -tree-fanout",
	"sim.Config.ShardAbsorb":   "selects shard.ModeAbsorb: -shard-absorb",
	"sim.Config.Trace":         "output choice: the time-series figures (Fig. 4, 9)",
	"sim.Config.Metrics":       "deployment setting: telemetry registry",
	"sim.Config.MetricsLabels": "deployment setting: per-run series in one registry",

	"automon-bench -fig":         "output choice: which figure",
	"automon-bench -full":        "paper-size against quick parameters",
	"automon-bench -seed":        "reproducibility",
	"automon-bench -latency":     "paper §4.7 WAN latency for Fig. 10",
	"automon-bench -telemetry":   "output choice: metric snapshots file",
	"automon-bench -parallel":    "two live values: 0 and 1, the figure sweeps' width, both pinned byte-identical on Fig. 8 in CI",
	"automon-bench -eig-backend": "three live values: results/adaptive.csv is recorded at interval",
	"automon-bench -sketch-rows": "the sketch's shape: accuracy against size",
	"automon-bench -sketch-cols": "the sketch's shape: accuracy against size",

	"automon-coordinator -addr":        "deployment setting",
	"automon-coordinator -func":        "the user's input: the function",
	"automon-coordinator -groups":      "deployment setting: tenants on one listener",
	"automon-coordinator -nodes":       "deployment setting",
	"automon-coordinator -eps":         "the user's input: the error bound ε",
	"automon-coordinator -r":           "follows core.Config.R",
	"automon-coordinator -seed":        "reproducibility: must match the nodes",
	"automon-coordinator -full":        "paper-size against quick parameters",
	"automon-coordinator -latency":     "deployment setting",
	"automon-coordinator -batch-bytes": "follows transport.BatchOptions.MaxBytes",
	"automon-coordinator -batch-delay": "follows transport.BatchOptions.MaxDelay",
	"automon-coordinator -report":      "output choice: reporting interval",
	"automon-coordinator -obs-addr":    "deployment setting",
	"automon-coordinator -eig-backend": "follows core.DecompOptions.Backend",
	"automon-coordinator -adaptive-r":  "follows core.Config.AdaptiveR",
	"automon-coordinator -r-max":       "follows core.Config.RMax",

	"automon-lint -list":  "output choice",
	"automon-lint -sarif": "output choice: CI annotation format",

	"automon-node -addr":               "deployment setting",
	"automon-node -func":               "the user's input: the function",
	"automon-node -id":                 "deployment setting",
	"automon-node -group":              "deployment setting",
	"automon-node -batch-bytes":        "follows transport.BatchOptions.MaxBytes",
	"automon-node -batch-delay":        "follows transport.BatchOptions.MaxDelay",
	"automon-node -seed":               "reproducibility: must match the coordinator",
	"automon-node -full":               "paper-size against quick parameters",
	"automon-node -latency":            "deployment setting",
	"automon-node -interval":           "deployment setting: update pacing",
	"automon-node -reconnect-attempts": "deployment setting",
	"automon-node -reconnect-base":     "deployment setting",
	"automon-node -obs-addr":           "deployment setting",

	"automon-sim -func":         "the user's input: the function",
	"automon-sim -algo":         "follows sim.Config.Algorithm",
	"automon-sim -eps":          "the user's input: the error bound ε",
	"automon-sim -period":       "follows sim.Config.Period",
	"automon-sim -r":            "follows core.Config.R",
	"automon-sim -full":         "paper-size against quick parameters",
	"automon-sim -seed":         "reproducibility",
	"automon-sim -adaptive-r":   "follows core.Config.AdaptiveR",
	"automon-sim -r-max":        "follows core.Config.RMax",
	"automon-sim -shards":       "follows sim.Config.Shards",
	"automon-sim -tree-fanout":  "follows sim.Config.TreeFanout",
	"automon-sim -shard-absorb": "follows sim.Config.ShardAbsorb",
}

func TestKnobManifest(t *testing.T) {
	optionStructs := map[string]bool{
		"core.Config": true, "core.DecompOptions": true, "optimize.Options": true, "transport.Options": true,
		"transport.BatchOptions": true, "shard.Options": true, "ingest.Options": true, "sim.Config": true,
	}
	found := map[string]bool{}
	walkModule(t, func(path string, f *ast.File) {
		if rest, ok := strings.CutPrefix(path, "cmd/"); ok {
			bin, _, _ := strings.Cut(rest, "/")
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
					return true
				}
				if name, ok := call.Args[0].(*ast.BasicLit); ok && name.Kind == token.STRING {
					found[bin+" -"+strings.Trim(name.Value, `"`)] = true
				}
				return true
			})
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !optionStructs[f.Name.Name+"."+ts.Name.Name] {
					continue
				}
				for _, fld := range ts.Type.(*ast.StructType).Fields.List {
					for _, name := range fld.Names {
						if name.IsExported() {
							found[f.Name.Name+"."+ts.Name.Name+"."+name.Name] = true
						}
					}
				}
			}
		}
	})
	want := make([]string, 0, len(knobManifest))
	for knob, reason := range knobManifest {
		want = append(want, knob)
		if reason == "" {
			t.Errorf("%s is listed without a reason", knob)
		}
	}
	sort.Strings(want)
	expectManifest(t, "option-struct fields and cmd/ flags", found, want)
}

// Packages under internal/ that exist for tests: the differential oracle,
// the fault injector and the build-tag probe. Their exports are test API.
var testSupportPkgs = map[string]bool{
	"automon/internal/oracle":          true,
	"automon/internal/transport/chaos": true,
	"automon/internal/testenv":         true,
}

// callerlessManifest is the reviewed set of exported package-level names
// under internal/ that no non-test code in the module uses, each with the
// reason it stays exported.
var callerlessManifest = map[string]string{
	"analysis.LoadFixture":     "the analyzer fixture tests' loader; it sits beside LoadModule so both share one type-checker",
	"analysis.LoadFixtureTree": "the cross-package analyzer fixtures' loader, beside LoadModule for the same reason",
	"funcs.Logistic":           "the zoo's logistic regression: the ε oracle sweeps it and interval soundness is proven on it",
	"sim.RunGroups":            "the in-process form of the multi-tenant listener, pinned against solo runs and the tree's isolation test",
	"stream.SketchBursts":      "a stream generator beside SketchChurn and SketchEpisodes: the elision differential's burst and ADCD-X cases",
	"stream.SketchChaos":       "a stream generator beside SketchChurn and SketchEpisodes: the elision differential's adversarial magnitudes",
}

// TestNoCallerlessExports fails on every exported package-level func, type,
// var or const under internal/ that nothing but tests uses (ROADMAP aim 2):
// such code is either dead, or test support that belongs in a _test.go file.
// LoadModule type-checks non-test files only, bench/ included.
func TestNoCallerlessExports(t *testing.T) {
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	used := map[types.Object]bool{}
	for _, p := range mod.Pkgs {
		for _, obj := range p.Info.Uses {
			used[obj] = true
		}
	}
	found := map[string]bool{}
	for _, p := range mod.Pkgs {
		if !strings.HasPrefix(p.Path, "automon/internal/") || testSupportPkgs[p.Path] {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() && !used[obj] {
				found[p.Pkg.Name()+"."+name] = true
			}
		}
	}
	want := make([]string, 0, len(callerlessManifest))
	for name, reason := range callerlessManifest {
		want = append(want, name)
		if reason == "" {
			t.Errorf("%s is listed without a reason", name)
		}
	}
	sort.Strings(want)
	expectManifest(t, "exported names under internal/ with no non-test use", found, want)
}
