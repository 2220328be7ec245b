package analysis

import (
	"path/filepath"
	"regexp"
	"testing"
)

// The fixture tests are analysistest-style: each analyzer has a package under
// testdata/src/<name> whose comments carry `// want "regex"` expectations.
// Every diagnostic must match a want on its line, and every want must be hit
// by a diagnostic — so the fixtures pin both the positive cases (the analyzer
// fires) and the negative ones (clean idioms stay clean).

var wantRe = regexp.MustCompile(`// want (.*)$`)
var wantQuoted = regexp.MustCompile(`"((?:\\.|[^"\\])*)"`)

type expectation struct {
	re  *regexp.Regexp
	hit bool
}

// collectWants parses the want expectations out of a fixture module's
// comments, keyed by file and line.
func collectWants(t *testing.T, mod *Module) map[string]map[int][]*expectation {
	t.Helper()
	wants := make(map[string]map[int][]*expectation)
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					qs := wantQuoted.FindAllStringSubmatch(m[1], -1)
					if len(qs) == 0 {
						t.Fatalf("%s: want comment carries no quoted pattern", pos)
					}
					for _, q := range qs {
						re, err := regexp.Compile(q[1])
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, q[1], err)
						}
						file := wants[pos.Filename]
						if file == nil {
							file = make(map[int][]*expectation)
							wants[pos.Filename] = file
						}
						file[pos.Line] = append(file[pos.Line], &expectation{re: re})
					}
				}
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<fixture> as pkgPath, runs the single
// analyzer, and checks diagnostics against the want expectations.
func runFixture(t *testing.T, a *Analyzer, fixture, pkgPath string) {
	t.Helper()
	mod, err := LoadFixture(filepath.Join("testdata", "src", fixture), pkgPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", fixture, err)
	}
	checkFixture(t, mod, a)
}

// checkFixture runs one analyzer over an already-loaded fixture module
// (single-package or tree) and checks diagnostics against the wants.
func checkFixture(t *testing.T, mod *Module, a *Analyzer) {
	t.Helper()
	diags, err := Lint(mod, []*Analyzer{a})
	if err != nil {
		t.Fatalf("lint fixture: %v", err)
	}
	wants := collectWants(t, mod)
	for _, d := range diags {
		matched := false
		for _, w := range wants[d.Pos.Filename][d.Pos.Line] {
			if !w.hit && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, lines := range wants {
		for line, ws := range lines {
			for _, w := range ws {
				if !w.hit {
					t.Errorf("%s:%d: no diagnostic matched %q", file, line, w.re)
				}
			}
		}
	}
}

func TestHotpathFixture(t *testing.T) {
	runFixture(t, Hotpath, "hotpath", "fixture/hotpath")
}

func TestPoolpairFixture(t *testing.T) {
	runFixture(t, Poolpair, "poolpair", "fixture/poolpair")
}

// The determinism fixture is loaded under fixture/internal/core so the
// package-scoped contract applies to it.
func TestDeterminismFixture(t *testing.T) {
	runFixture(t, Determinism, "determinism", "fixture/internal/core")
}

// TestDeterminismScopedToContractPackages reloads the same fixture under a
// path outside the deterministic-package list and requires zero findings:
// the contract must not leak into unrelated packages.
func TestDeterminismScopedToContractPackages(t *testing.T) {
	mod, err := LoadFixture(filepath.Join("testdata", "src", "determinism"), "fixture/free")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Lint(mod, []*Analyzer{Determinism})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("determinism fired outside its package list: %s", d)
	}
}

func TestObsnamesFixture(t *testing.T) {
	runFixture(t, Obsnames, "obsnames", "fixture/obsnames")
}

func TestNofloateqFixture(t *testing.T) {
	runFixture(t, Nofloateq, "nofloateq", "fixture/nofloateq")
}

// TestSuppressionDirectives pins the directive hygiene rules on the allowform
// fixture: malformed directives are diagnostics and do not waive findings;
// well-formed ones do.
func TestSuppressionDirectives(t *testing.T) {
	mod, err := LoadFixture(filepath.Join("testdata", "src", "allowform"), "fixture/allowform")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Lint(mod, []*Analyzer{Nofloateq})
	if err != nil {
		t.Fatal(err)
	}
	count := func(pattern string) int {
		re := regexp.MustCompile(pattern)
		n := 0
		for _, d := range diags {
			if re.MatchString(d.Message) {
				n++
			}
		}
		return n
	}
	if got := count("needs a reason"); got != 1 {
		t.Errorf("reasonless directive diagnostics = %d, want 1", got)
	}
	if got := count("unknown analyzer"); got != 1 {
		t.Errorf("unknown-analyzer directive diagnostics = %d, want 1", got)
	}
	if got := count("missing analyzer name"); got != 1 {
		t.Errorf("nameless directive diagnostics = %d, want 1", got)
	}
	// The three malformed directives must not suppress their findings; the
	// one well-formed directive must.
	if got := count("bit-fragile"); got != 3 {
		t.Errorf("surviving nofloateq findings = %d, want 3 (malformed directives must not suppress)", got)
	}
	if len(diags) != 6 {
		for _, d := range diags {
			t.Logf("  %s", d)
		}
		t.Errorf("total diagnostics = %d, want 6", len(diags))
	}
}
