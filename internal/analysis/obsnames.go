package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// Obsnames proves the metric-namespace grammar and the constructor/kind match
// at compile time, extending the PR-2 review's runtime kind-mismatch panic in
// obs.Registry.lookupOrAdd. Every automon_* metric name that reaches a
// counter/gauge/histogram constructor (any callee whose name contains
// Counter, Gauge or Histogram) must follow
//
//	automon_<subsystem>_<name>[{labels}]
//
// in lower_snake_case, where counters end in _total (optionally preceded by a
// _seconds/_bytes unit) and gauges/histograms must NOT end in _total or claim
// the Prometheus-reserved _bucket/_count/_sum suffixes the exposition appends
// itself. Names built at runtime are validated on their constant prefix; a
// name with no constant part is out of reach and stays a runtime concern.
var Obsnames = &Analyzer{
	Name: "obsnames",
	Doc:  "metric names must match automon_<subsystem>_<name> with a kind-consistent suffix (_total for counters)",
	Run:  runObsnames,
}

var metricBaseRe = regexp.MustCompile(`^automon_[a-z0-9]+(_[a-z0-9]+)*$`)
var metricPrefixRe = regexp.MustCompile(`^automon(_[a-z0-9]+)*_?$`)

// metricKindOf classifies a constructor by callee name (case-insensitive, so
// helpers wrapping a constructor are covered alongside the Registry methods).
func metricKindOf(name string) string {
	lower := strings.ToLower(name)
	switch {
	case strings.Contains(lower, "counter"):
		return "counter"
	case strings.Contains(lower, "gauge"):
		return "gauge"
	case strings.Contains(lower, "histogram"):
		return "histogram"
	}
	return ""
}

// constantName extracts the compile-time-known part of a metric-name
// expression: a fully constant string (including folded concatenation), the
// constant left side of a `const + dynamic` concatenation, or the prefix of a
// fmt.Sprintf format cut at its first verb. complete reports whether the
// returned string is the whole base name (dynamic remainders that only append
// a {label} set keep the base complete).
func constantName(info *types.Info, e ast.Expr) (name string, complete bool) {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		left, leftComplete := constantName(info, e.X)
		if left == "" || !leftComplete {
			return left, false
		}
		// automon_..._total + lbl(...): the dynamic part appends labels, so
		// the base name ends with the constant prefix iff it already carries
		// a brace or a terminal suffix; report it as incomplete and let the
		// checker decide what it can still verify.
		return left, false
	case *ast.CallExpr:
		if fn := callee(info, e); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "fmt" && fn.Name() == "Sprintf" && len(e.Args) > 0 {
			format, ok := constantName(info, e.Args[0])
			if !ok {
				return "", false
			}
			if i := strings.IndexByte(format, '%'); i >= 0 {
				// A single trailing %s appends a label set; the base is
				// complete. Anything else leaves the base open.
				if i == len(format)-2 && strings.HasSuffix(format, "%s") && strings.Count(format, "%") == 1 {
					return format[:i], true
				}
				return format[:i], false
			}
			return format, true
		}
	}
	return "", false
}

// reservedSuffixes are appended by the Prometheus exposition itself and may
// not appear in gauge/histogram base names; _total marks a counter.
var reservedSuffixes = []string{"_bucket", "_count", "_sum"}

func checkMetricName(p *Pass, pos ast.Node, kind, name string, complete bool) {
	base := name
	if i := strings.IndexByte(base, '{'); i >= 0 {
		base, complete = base[:i], true
	}
	if !complete {
		// Only the charset and the automon_ prefix are checkable.
		if !metricPrefixRe.MatchString(base) {
			p.Reportf(pos.Pos(), "metric name prefix %q does not follow automon_<subsystem>_<name> lower_snake_case", base)
			return
		}
		if kind == "counter" && strings.HasSuffix(base, "_total") {
			return // dynamic remainder is a label set on a well-formed counter
		}
		return
	}
	if !metricBaseRe.MatchString(base) {
		p.Reportf(pos.Pos(), "metric name %q does not follow automon_<subsystem>_<name> lower_snake_case", base)
		return
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(base, "_total") {
			p.Reportf(pos.Pos(), "counter %q must end in _total (unit suffixes like _bytes_total come before it)", base)
		}
	case "gauge", "histogram":
		if strings.HasSuffix(base, "_total") {
			p.Reportf(pos.Pos(), "%s %q must not end in _total: that suffix marks counters, and obs.Registry panics on kind mismatch at runtime", kind, base)
			return
		}
		for _, s := range reservedSuffixes {
			if strings.HasSuffix(base, s) {
				p.Reportf(pos.Pos(), "%s %q must not end in %s: the exposition appends that suffix itself", kind, base, s)
			}
		}
	}
}

func runObsnames(p *Pass) error {
	for _, pkg := range p.Pkgs {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := callee(info, call)
				if fn == nil {
					return true
				}
				kind := metricKindOf(fn.Name())
				if kind == "" {
					return true
				}
				// The first string-typed argument is the metric name by
				// convention (Registry methods and Register* agree on it).
				for _, arg := range call.Args {
					tv, ok := info.Types[arg]
					if !ok {
						continue
					}
					b, ok := tv.Type.Underlying().(*types.Basic)
					if !ok || b.Info()&types.IsString == 0 {
						continue
					}
					name, complete := constantName(info, arg)
					if name == "" {
						break // dynamic name: out of static reach
					}
					if !strings.HasPrefix(name, "automon_") {
						p.Reportf(arg.Pos(), "metric name %q must start with automon_<subsystem>_", name)
						break
					}
					checkMetricName(p, arg, kind, name, complete)
					break
				}
				return true
			})
		}
	}
	return nil
}
