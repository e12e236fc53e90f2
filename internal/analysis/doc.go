// Package analysis is sdradlint: a suite of type-checked static
// analyzers that enforce, at lint time, the soundness invariants the
// rest of this repository only asserts at run time.
//
// The reproduction's guarantees — deterministic virtual time, exact
// cycle accounting, byte-identical campaign traces, typed
// rewind/budget/overload errors — are invariants the Go compiler cannot
// see. Each analyzer turns one of them into a compile-time gate:
//
//   - wallclock: library code must never read the wall clock
//     (time.Now/Since/Until); virtual time is the only clock. Type-aware,
//     so import aliases, dot-imports, and function-value indirection
//     cannot dodge it.
//   - unchargedmem: functions marked "//lint:uncharged" (the kernel-side
//     Peek64/Poke64 accessors) are callable only from their defining
//     package and packages sanctioned with //lint:allow unchargedmem.
//   - detorder: no raw map iteration — traces, digests, and aggregated
//     stats must be iteration-order deterministic. The key-collect-then-
//     sort idiom is recognized; everything else needs a justification.
//   - errclass: typed errors are classified (errors.Is/IsBudget/
//     IsOverload), never compared with == or silently dropped.
//   - docexport: exported declarations of public packages carry doc
//     comments.
//   - unusedexport: every exported identifier under internal/ has a
//     non-test user in the module; an export only tests call is dead.
//     The one check that reads the whole universe: a package's users
//     are analyzed after it.
//
// Exemptions are declared in the exempted code itself as directives,
// never as path lists in a driver:
//
//	//lint:allow <analyzer> <reason>    package-wide, on the package clause
//	//lint:<analyzer> <justification>   one site, on or above the line
//	//lint:uncharged                    marks a sanctioned accessor decl
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// object facts, an analysistest-style fixture runner in the
// analysistest subpackage) but is self-contained: packages are loaded
// via `go list -deps -export` and type-checked from source in one
// shared object universe, with standard-library imports resolved from
// the build cache's export data. cmd/sdradlint is the multichecker;
// `make lint` runs it over ./... and CI gates on it. DESIGN.md §10 maps
// each analyzer to the soundness argument it protects.
package analysis
