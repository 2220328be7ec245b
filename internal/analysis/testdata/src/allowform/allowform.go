// Package allowform exercises the suppression-directive hygiene rules: a
// directive without a reason, without a name, or naming an unknown analyzer
// is itself a diagnostic and does NOT waive the underlying finding. The
// expectations are asserted programmatically (TestSuppressionDirectives)
// rather than with want comments, because the malformed directives under
// test occupy the comment position a want marker would need.
package allowform

func missingReason(a, b float64) bool {
	//automon:allow nofloateq
	return a == b
}

func unknownAnalyzer(a, b float64) bool {
	//automon:allow nosuch because reasons
	return a == b
}

func missingName(a, b float64) bool {
	//automon:allow
	return a == b
}

func wellFormed(a, b float64) bool {
	//automon:allow nofloateq deliberate fixture waiver
	return a == b
}
