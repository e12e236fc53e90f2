// Command sdrad-report regenerates the measured sections of
// EXPERIMENTS.md: it runs the experiments and writes a markdown report
// with the paper-vs-measured comparison, suitable for committing next to
// the code.
//
// Usage:
//
//	sdrad-report [-o EXPERIMENTS.md] [-exp E1,E4] [-quick] [-seed N]
//
// With no -exp flag every experiment runs in order; -exp takes
// comma-separated ids in any case. The exit status is 1 when an id is
// unknown, an experiment fails to run, or any shape check fails (the
// report is still written), and 2 on a bad flag.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("sdrad-report", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default: stdout)")
	expFlag := fs.String("exp", "", "comma-separated experiment ids (default: all)")
	quick := fs.Bool("quick", false, "reduced-size experiments")
	seed := fs.Uint64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ids := exp.IDs()
	if *expFlag != "" {
		ids = strings.Split(*expFlag, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(strings.ToUpper(ids[i]))
		}
	}
	r := exp.Runner{Quick: *quick, Seed: *seed}
	results := make([]*exp.Result, 0, len(ids))
	for _, id := range ids {
		res, err := r.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdrad-report: %v\n", err)
			return 1
		}
		results = append(results, res)
	}
	return emit(stdout, *out, r, results)
}

// emit writes the report for results to path (stdout when path is
// empty) and returns the exit status: 1 when the write fails or any
// shape check fails.
func emit(stdout io.Writer, path string, r exp.Runner, results []*exp.Result) int {
	report, failed := build(r, results)
	if path == "" {
		fmt.Fprint(stdout, report)
	} else {
		if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sdrad-report: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d bytes)\n", path, len(report))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "sdrad-report: %d shape checks fail\n", failed)
		return 1
	}
	return 0
}

// build renders results in the EXPERIMENTS.md format and returns the
// report with the number of shape checks that fail.
func build(r exp.Runner, results []*exp.Result) (string, int) {
	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper vs measured\n\n")
	b.WriteString("Generated by `go run ./cmd/sdrad-report`. Every table below is the\n")
	b.WriteString("regenerated form of one quantitative claim of the paper (see DESIGN.md §1\n")
	b.WriteString("for the claim inventory and §4 for the experiment index). Absolute numbers\n")
	b.WriteString("come from the calibrated cost model of the simulated machine; the\n")
	b.WriteString("reproduction target is the *shape* — who wins, by what factor, and where\n")
	b.WriteString("crossovers fall.\n\n")
	mode := "full"
	if r.Quick {
		mode = "quick"
	}
	fmt.Fprintf(&b, "Run mode: %s, seed %d.\n\n", mode, r.Seed)
	passTotal, checkTotal := 0, 0
	for _, res := range results {
		fmt.Fprintf(&b, "## %s — %s\n\n", res.ID, res.Claim)
		b.WriteString(res.Table.Markdown())
		if res.Notes != "" {
			fmt.Fprintf(&b, "\n*Note: %s.*\n", res.Notes)
		}
		checks := exp.Verify(res)
		b.WriteString("\nShape verification:\n\n")
		for _, c := range checks {
			checkTotal++
			mark := "✗"
			if c.Pass {
				mark = "✓"
				passTotal++
			}
			fmt.Fprintf(&b, "- %s %s (%s)\n", mark, c.Name, c.Detail)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "---\n\n**Shape verdict: %d/%d checks pass.**\n", passTotal, checkTotal)
	return b.String(), checkTotal - passTotal
}
