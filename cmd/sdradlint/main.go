// Command sdradlint runs the SDRaD invariant analyzers (wallclock,
// unchargedmem, detorder, errclass, docexport, unusedexport) over Go
// packages and reports findings in file:line:col form. It exits 0 when
// clean, 1 on findings, 2 on load or usage errors.
//
// Usage:
//
//	sdradlint [-analyzers a,b] [-list] [-json-out file] [packages...]
//
// Packages default to ./... in the current directory. -json-out writes
// the findings as a JSON array (empty on a clean run) for CI artifact
// upload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list analyzers and exit")
		names   = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		jsonOut = flag.String("json-out", "", "write findings as JSON to this file")
		dir     = flag.String("dir", ".", "directory to resolve packages from")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	suite := analysis.All()
	if *names != "" {
		suite = suite[:0]
		for _, n := range strings.Split(*names, ",") {
			a := analysis.ByName(strings.TrimSpace(n))
			if a == nil {
				fmt.Fprintf(os.Stderr, "sdradlint: unknown analyzer %q\n", n)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	patterns := flag.Args()
	u, err := analysis.LoadPackages(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdradlint: %v\n", err)
		os.Exit(2)
	}
	findings, err := analysis.Run(suite, u)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdradlint: %v\n", err)
		os.Exit(2)
	}

	if *jsonOut != "" {
		if findings == nil {
			findings = []analysis.Finding{}
		}
		data, err := json.MarshalIndent(findings, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdradlint: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sdradlint: %v\n", err)
			os.Exit(2)
		}
	}

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "sdradlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
