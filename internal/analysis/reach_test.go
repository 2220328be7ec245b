package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// Packages under internal/ that exist for tests: the differential oracle,
// the fault injector and the build-tag probe. Their exports are test API,
// so they are neither roots of the reachability gate nor checked by it.
var testSupportPkgs = map[string]bool{
	"automon/internal/oracle":          true,
	"automon/internal/transport/chaos": true,
	"automon/internal/testenv":         true,
}

// unreachedManifest is the reviewed set of non-test names under internal/
// that no program reaches, each with the reason it stays. At most
// maxUnreached entries: anything else is dead code or test support that
// belongs in a _test.go file.
var unreachedManifest = map[string]string{
	"funcs.Logistic":      "the zoo's logistic regression: the ε oracle, the elision differential, interval soundness and the Hessian-block suite run it from four packages' tests",
	"stream.SketchBursts": "a stream generator beside SketchChurn and SketchEpisodes: the elision differential's burst and ADCD-X cases in ingest's tests",
	"stream.SketchChaos":  "a stream generator beside SketchChurn and SketchEpisodes: the elision differential's adversarial magnitudes in ingest's tests",
}

const maxUnreached = 10

// reach is the gate's whole-program reachability walk. Nodes are the
// module's package-level objects (funcs, methods, types, vars, consts);
// edges are every reference a reached declaration makes (static calls, func
// values, method values and expressions, type and constant uses), plus the
// RTA-style dynamic edges: a method of a reached type is reached when an
// interface method of its name is called in reached code and the type
// implements that interface, or when the type implements an interface
// declared outside the module (fmt.Stringer, error, sort.Interface, …),
// which the standard library may call on its own.
//
// The edges exist only here. determinism's call graph keeps function
// values and interface calls opaque by contract (see summary.go).
type reach struct {
	modPath string
	decls   map[types.Object]ast.Node // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	info    map[types.Object]*types.Info
	ext     map[string][]*types.Interface // external interfaces by method name

	reached map[types.Object]bool
	queue   []types.Object
	named   []*types.Named                   // reached non-interface named types, for RTA
	called  map[*types.Func]*types.Interface // interface methods called in reached code
}

// newReach indexes the declarations of every loaded package and the
// interfaces declared by the packages they import from outside the module.
func newReach(mod *Module, modPath string) *reach {
	r := &reach{
		modPath: modPath,
		decls:   make(map[types.Object]ast.Node),
		info:    make(map[types.Object]*types.Info),
		ext:     make(map[string][]*types.Interface),
		reached: make(map[types.Object]bool),
		called:  make(map[*types.Func]*types.Interface),
	}
	for fn, body := range indexFuncs(&Pass{Fset: mod.Fset, Pkgs: mod.Pkgs}) {
		r.decls[fn] = body.decl
		r.info[fn] = body.pkg.Info
	}
	seen := map[*types.Package]bool{}
	var external func(p *types.Package)
	external = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			external(imp)
		}
		if r.inModule(p) {
			return
		}
		for _, name := range p.Scope().Names() {
			r.addExternal(p.Scope().Lookup(name))
		}
	}
	r.addExternal(types.Universe.Lookup("error"))
	for _, pkg := range mod.Pkgs {
		external(pkg.Pkg)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						r.index(pkg.Info, s.Name, s)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							r.index(pkg.Info, name, s)
						}
					}
				}
			}
		}
	}
	return r
}

func (r *reach) index(info *types.Info, name *ast.Ident, n ast.Node) {
	if obj := info.Defs[name]; obj != nil {
		r.decls[obj] = n
		r.info[obj] = info
	}
}

// addExternal records obj if it is a non-generic interface with methods.
func (r *reach) addExternal(obj types.Object) {
	tn, ok := obj.(*types.TypeName)
	if !ok || !tn.Exported() && tn.Pkg() != nil {
		return
	}
	if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
		return
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		r.ext[name] = append(r.ext[name], iface)
	}
}

func (r *reach) inModule(p *types.Package) bool {
	return p != nil && (p.Path() == r.modPath || strings.HasPrefix(p.Path(), r.modPath+"/"))
}

// mark reaches obj: a generic instance maps to its origin, an alias to the
// type it names, and an interface method to every implementation among the
// reached types (resolved in run's fixpoint).
func (r *reach) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if sig := o.Type().(*types.Signature); sig.Recv() != nil {
			if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
				r.called[o.Origin()] = iface
				return
			}
		}
	case *types.TypeName:
		if o.IsAlias() {
			if named, ok := types.Unalias(o.Type()).(*types.Named); ok {
				r.mark(named.Origin().Obj())
			}
		}
	case *types.Var, *types.Const:
		if o.Parent() == nil || o.Parent() != o.Pkg().Scope() {
			return // fields, parameters and locals
		}
	default:
		return
	}
	if !r.inModule(obj.Pkg()) || r.reached[obj] {
		return
	}
	r.reached[obj] = true
	r.queue = append(r.queue, obj)
}

// markUses reaches every object referenced inside n.
func (r *reach) markUses(info *types.Info, n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				r.mark(obj)
			}
		}
		return true
	})
}

// run drains the queue, then adds the dynamic edges, until nothing new is
// reached.
func (r *reach) run() {
	for {
		for len(r.queue) > 0 {
			obj := r.queue[0]
			r.queue = r.queue[1:]
			info := r.info[obj]
			switch d := r.decls[obj].(type) {
			case *ast.FuncDecl:
				r.markUses(info, d)
			case *ast.TypeSpec:
				r.markUses(info, d)
				if named, ok := obj.Type().(*types.Named); ok && !types.IsInterface(named) {
					r.named = append(r.named, named)
				}
			case *ast.ValueSpec:
				// A var's initializer is a root of its own; a constant's
				// value expression is part of the constant.
				r.markUses(info, d.Type)
				if _, isConst := obj.(*types.Const); isConst {
					for _, v := range d.Values {
						r.markUses(info, v)
					}
				}
			}
		}
		for _, named := range r.named {
			r.dynamic(named)
		}
		if len(r.queue) == 0 {
			return
		}
	}
}

// dynamic reaches the methods of one reached type that an interface call in
// reached code, or an interface declared outside the module, may dispatch to.
// The pointer's method set includes the value's, so implementing through
// *T covers both.
func (r *reach) dynamic(named *types.Named) {
	if named.TypeParams().Len() > 0 {
		// A generic type's methods are reached through static calls only:
		// one called through an interface would be reported, not missed.
		return
	}
	ptr := types.NewPointer(named)
	ms := types.NewMethodSet(ptr)
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj().(*types.Func)
		if r.reached[m.Origin()] {
			continue
		}
		for _, iface := range r.ext[m.Name()] {
			if types.Implements(ptr, iface) {
				r.mark(m)
				break
			}
		}
	}
	for im, iface := range r.called {
		if obj, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name()); obj != nil && types.Implements(ptr, iface) {
			r.mark(obj)
		}
	}
}

// label renders a package-level object as pkgname.Name or
// pkgname.Type.Method.
func label(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				name = named.Obj().Name() + "." + name
			}
		}
	}
	return obj.Pkg().Name() + "." + name
}

// TestEveryNameIsReached is the reachability gate (ROADMAP aim 2): every
// non-test function, method and package-level name under internal/ must be
// reached from a program, or be listed in unreachedManifest with a reason.
//
// Roots: every main and init, every package-level var initializer of the
// packages the programs import (test-support packages excepted), every
// exported name of the root automon package, and the method sets (promoted
// methods included) of the types it exports by alias. LoadModule
// type-checks non-test files only, bench/ included, so a name that only a
// test reaches is unreached.
func TestEveryNameIsReached(t *testing.T) {
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	const modPath = "automon"
	r := newReach(mod, modPath)

	// The packages the programs link: the import closure of every main
	// package and of the public API.
	linked := map[*types.Package]bool{}
	var link func(p *types.Package)
	link = func(p *types.Package) {
		if linked[p] || !r.inModule(p) || testSupportPkgs[p.Path()] {
			return
		}
		linked[p] = true
		for _, imp := range p.Imports() {
			link(imp)
		}
	}
	for _, pkg := range mod.Pkgs {
		if pkg.Pkg.Name() == "main" || pkg.Path == modPath {
			link(pkg.Pkg)
		}
	}
	for _, pkg := range mod.Pkgs {
		if !linked[pkg.Pkg] {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Pkg.Name() == "main") {
						r.mark(pkg.Info.Defs[d.Name])
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, v := range vs.Values {
								r.markUses(pkg.Info, v)
							}
						}
					}
				}
			}
		}
		if pkg.Path != modPath {
			continue
		}
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			r.mark(obj)
			if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
				ms := types.NewMethodSet(types.NewPointer(tn.Type()))
				for i := 0; i < ms.Len(); i++ {
					r.mark(ms.At(i).Obj())
				}
			}
		}
	}
	r.run()

	found := map[string]bool{}
	for obj := range r.decls {
		p := obj.Pkg()
		if r.reached[obj] || obj.Name() == "_" || obj.Name() == "init" ||
			!strings.HasPrefix(p.Path(), modPath+"/internal/") || testSupportPkgs[p.Path()] {
			continue
		}
		found[label(obj)] = true
	}
	if len(unreachedManifest) > maxUnreached {
		t.Errorf("unreachedManifest has %d entries, at most %d are allowed", len(unreachedManifest), maxUnreached)
	}
	want := make([]string, 0, len(unreachedManifest))
	for name, reason := range unreachedManifest {
		want = append(want, name)
		if reason == "" {
			t.Errorf("%s is listed without a reason", name)
		}
	}
	sort.Strings(want)
	expectManifest(t, "non-test names under internal/ that no program reaches", found, want)
}
