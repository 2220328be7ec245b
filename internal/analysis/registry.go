package analysis

// All returns every analyzer in the suite, in stable order. cmd/automon-lint
// runs exactly this list; the meta-test in this package asserts the two never
// drift apart. The first five are the syntactic suite; the last three ride
// the interprocedural dataflow layer (summary.go).
func All() []*Analyzer {
	return []*Analyzer{
		Hotpath,
		Poolpair,
		Determinism,
		Obsnames,
		Nofloateq,
		Statepure,
		Lockorder,
		Floatflow,
	}
}
