package analysis

// All returns every analyzer in the suite, in stable order. cmd/automon-lint
// runs exactly this list; the meta-test in this package asserts the two never
// drift apart. The first three are syntactic; determinism rides the
// interprocedural call graph (summary.go).
func All() []*Analyzer {
	return []*Analyzer{
		Hotpath,
		Obsnames,
		Nofloateq,
		Determinism,
	}
}
