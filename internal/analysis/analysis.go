// Package analysis is automon's project-specific static-analyzer framework:
// a small go/analysis-style harness built only on the standard library
// (go/parser + go/types), so the module stays dependency-free while the
// runtime invariants — allocation-free hot paths, bit-determinism at any
// worker count, exact-only float equality, and a coherent metric namespace —
// are proven on every build of every package instead of only on the code
// paths the tests happen to drive.
//
// The suite runs via `go run ./cmd/automon-lint ./...` and via the fixture
// tests in this package. Analyzers report Diagnostics; a finding is
// suppressed by a mandatory-reason directive on the flagged line or the line
// directly above it:
//
//	//automon:allow <analyzer> <reason>
//
// A directive without a reason, or naming an unknown analyzer, is itself a
// diagnostic: suppressions must stay auditable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker. Run inspects every package of the
// Pass and reports findings through it; it must be stateless so the same
// Analyzer value can serve the CLI and concurrent tests.
type Analyzer struct {
	// Name is the identifier used in diagnostics and //automon:allow
	// directives. Lowercase, no spaces.
	Name string
	// Doc is the one-line invariant statement shown by `automon-lint -help`.
	Doc string
	// Run performs the analysis over the whole module.
	Run func(*Pass) error
}

// Package is one type-checked package of the loaded module.
type Package struct {
	// Path is the import path ("automon/internal/core").
	Path string
	// Pkg is the type-checker's package object.
	Pkg *types.Package
	// Info holds the resolved types, uses, defs and selections for Files.
	Info *types.Info
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
}

// Module is a fully loaded and type-checked set of packages sharing one
// FileSet. Packages appear in dependency order.
type Module struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// Diagnostic is one reported finding, already positioned for display.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer run over a module. Analyzers iterate Pkgs and
// call Reportf; Suppressed lets whole-program analyzers (hotpath,
// determinism) prune traversal at deliberately waived call sites.
type Pass struct {
	Fset *token.FileSet
	Pkgs []*Package

	analyzer *Analyzer
	allows   allowIndex
	diags    *[]Diagnostic
}

// Reportf records a finding at pos. Findings on suppressed lines are dropped
// by the harness, not by the analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suppressed reports whether a finding by the running analyzer at pos would
// be waived by an //automon:allow directive.
func (p *Pass) Suppressed(pos token.Pos) bool {
	return p.allows.covers(p.Fset.Position(pos), p.analyzer.Name)
}

// allow is one parsed //automon:allow directive.
type allow struct {
	pos      token.Position
	analyzer string
	reason   string
}

// allowIndex maps filename → line → directives that cover that line. A
// directive covers its own line (trailing comment) and the next code line:
// for an own-line directive, consecutive directive-only lines chain, so a
// stack of //automon:allow lines (one per analyzer) all cover the first
// statement after the stack.
type allowIndex map[string]map[int][]*allow

func (ai allowIndex) covers(pos token.Position, analyzer string) bool {
	lines := ai[pos.Filename]
	if lines == nil {
		return false
	}
	for _, a := range lines[pos.Line] {
		if a.analyzer == analyzer {
			return true
		}
	}
	return false
}

const allowPrefix = "//automon:allow "

// collectAllows scans every comment of the module for suppression
// directives. Malformed directives are returned as diagnostics.
func collectAllows(mod *Module, known map[string]bool) (allowIndex, []Diagnostic) {
	idx := make(allowIndex)
	var bad []Diagnostic
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			codeLines := nonCommentLines(mod.Fset, f)
			// First pass: parse every well-formed directive of the file and
			// note which lines are directive-only (no code on them), so
			// stacked directives can chain over each other.
			var allows []*allow
			directiveOnly := make(map[int]bool)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, strings.TrimSpace(allowPrefix)) {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					rest := strings.TrimSpace(strings.TrimPrefix(c.Text, strings.TrimSpace(allowPrefix)))
					name, reason, _ := strings.Cut(rest, " ")
					reason = strings.TrimSpace(reason)
					switch {
					case name == "":
						bad = append(bad, Diagnostic{Pos: pos, Analyzer: "automon-lint",
							Message: "malformed //automon:allow directive: missing analyzer name"})
						continue
					case !known[name]:
						bad = append(bad, Diagnostic{Pos: pos, Analyzer: "automon-lint",
							Message: fmt.Sprintf("//automon:allow names unknown analyzer %q", name)})
						continue
					case reason == "":
						bad = append(bad, Diagnostic{Pos: pos, Analyzer: "automon-lint",
							Message: fmt.Sprintf("//automon:allow %s needs a reason: suppressions must say why the invariant is waived", name)})
						continue
					}
					allows = append(allows, &allow{pos: pos, analyzer: name, reason: reason})
					if !codeLines[pos.Line] {
						directiveOnly[pos.Line] = true
					}
				}
			}
			if len(allows) == 0 {
				continue
			}
			// Second pass: assign coverage. Every directive covers its own
			// line (trailing form). An own-line directive additionally covers
			// the first following line that is not itself a directive-only
			// line, so a stack of waivers all reach the flagged statement.
			file := idx[mod.Fset.Position(f.Pos()).Filename]
			if file == nil {
				file = make(map[int][]*allow)
				idx[mod.Fset.Position(f.Pos()).Filename] = file
			}
			for _, a := range allows {
				file[a.pos.Line] = append(file[a.pos.Line], a)
				next := a.pos.Line + 1
				if directiveOnly[a.pos.Line] {
					for directiveOnly[next] {
						next++
					}
				}
				file[next] = append(file[next], a)
			}
		}
	}
	return idx, bad
}

// nonCommentLines marks every line of the file that carries a non-comment
// token, so an //automon:allow directive can be classified as trailing
// (sharing a line with code) or own-line (free to chain over a stack of
// neighbouring directives).
func nonCommentLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		case *ast.File:
			return true
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}

// Lint runs the analyzers over the module, applies suppression directives,
// and returns the surviving diagnostics sorted by position. Malformed
// directives are reported as findings so a bad suppression cannot silently
// disable a check.
func Lint(mod *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	allows, bad := collectAllows(mod, known)

	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset:     mod.Fset,
			Pkgs:     mod.Pkgs,
			analyzer: a,
			allows:   allows,
			diags:    &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}

	out := bad
	for _, d := range raw {
		if allows.covers(d.Pos, d.Analyzer) {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}
