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
//
// Findings are always reported module-wide: the analyzers follow calls
// across packages, so a change in one package can surface a finding in an
// unchanged one.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"automon/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "print the analyzers and their invariants, then exit")
	sarif := flag.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: automon-lint [-list] [-sarif] [./...]\n\nAnalyzers:\n")
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

	// The suite is whole-module by construction (the hotpath and determinism
	// call graphs span packages), so the only accepted patterns are the
	// module itself.
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
