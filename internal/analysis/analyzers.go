package analysis

// All returns the full sdradlint suite in a fixed order. Each analyzer
// guards one of the soundness invariants DESIGN.md §10 maps to the
// paper's claims; new analyzers register here so cmd/sdradlint and the
// guardrail tests pick them up together.
func All() []*Analyzer {
	return []*Analyzer{Wallclock, UnchargedMem, DetOrder, ErrClass, DocExport, UnusedExport}
}

// ByName returns the named analyzer from All, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
