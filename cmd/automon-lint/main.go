// Command automon-lint runs the project's static-analyzer suite
// (internal/analysis) over the whole module:
//
//	go run ./cmd/automon-lint ./...
//
// It exits 0 when every invariant holds, 1 with findings on stdout when one
// does not, and 2 on a load or usage error. Findings are suppressed per line
// with `//automon:allow <analyzer> <reason>`; see DESIGN.md for the analyzer
// list and the invariant each one encodes.
//
// Modes:
//
//	-list        print the analyzers and their invariants, then exit
//	-sarif       emit findings as a SARIF 2.1.0 log on stdout (for CI
//	             annotation and artifact upload) instead of plain lines
//	-diff REF    analyze the whole module (the call graphs span packages)
//	             but report only findings in packages with files changed
//	             versus the git ref, e.g. -diff origin/main on a PR
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"automon/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "print the analyzers and their invariants, then exit")
	sarif := flag.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log on stdout")
	diffRef := flag.String("diff", "", "report only findings in packages changed versus this git ref")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: automon-lint [-list] [-sarif] [-diff ref] [./...]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	// The suite is whole-module by construction (the hotpath call graph spans
	// packages), so the only accepted patterns are the module itself.
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "." && !strings.HasPrefix(arg, "automon") {
			fmt.Fprintf(os.Stderr, "automon-lint: unsupported package pattern %q (the suite always runs module-wide; use ./...)\n", arg)
			os.Exit(2)
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "automon-lint: %v\n", err)
		os.Exit(2)
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "automon-lint: %v\n", err)
		os.Exit(2)
	}
	diags, err := analysis.Lint(mod, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "automon-lint: %v\n", err)
		os.Exit(2)
	}

	if *diffRef != "" {
		diags, err = filterToChanged(root, *diffRef, diags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "automon-lint: %v\n", err)
			os.Exit(2)
		}
	}

	if *sarif {
		out, err := analysis.SARIF(diags, analyzers, root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "automon-lint: %v\n", err)
			os.Exit(2)
		}
		os.Stdout.Write(out)
		fmt.Println()
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "automon-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// filterToChanged keeps only the diagnostics whose file lives in a package
// directory with Go files changed versus ref. The analysis itself already
// ran module-wide — interprocedural summaries need the whole graph — this
// only narrows what is reported, so a PR is annotated with its own packages'
// findings and pre-existing ones elsewhere don't fail it.
func filterToChanged(root, ref string, diags []analysis.Diagnostic) ([]analysis.Diagnostic, error) {
	cmd := exec.Command("git", "-C", root, "diff", "--name-only", ref, "--", "*.go")
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return nil, fmt.Errorf("git diff %s: %v: %s", ref, err, strings.TrimSpace(string(ee.Stderr)))
		}
		return nil, fmt.Errorf("git diff %s: %v", ref, err)
	}
	changedDirs := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line == "" {
			continue
		}
		changedDirs[filepath.ToSlash(filepath.Dir(line))] = true
	}
	var kept []analysis.Diagnostic
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			kept = append(kept, d)
			continue
		}
		if changedDirs[filepath.ToSlash(filepath.Dir(rel))] {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// findModuleRoot walks up from the working directory to the nearest go.mod,
// so the linter works from any subdirectory of the module.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
