// Command simlint runs the repository's determinism and protocol-invariant
// static-analysis pass (internal/analysis) over the module and reports
// findings as "file:line: [analyzer] message", exiting non-zero when any
// finding survives //lint:allow suppression. Every analyzer runs on every
// package: code that reads the host clock or ranges a map on purpose carries
// a reasoned suppression comment where it does.
//
// Usage:
//
//	go run ./cmd/simlint ./...            # lint the module
//	go run ./cmd/simlint -list            # show the analyzer set
//	go run ./cmd/simlint -json ./...      # one JSON object per finding, one per line
//	                                      # (fed to the CI problem matcher and the
//	                                      # self-check golden diff)
//	go run ./cmd/simlint -timing ./...    # per-analyzer wall clock on stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON Lines (file, line, analyzer, message)")
	timing := flag.Bool("timing", false, "report load and per-analyzer wall clock on stderr")
	flag.Parse()

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loadStart := time.Now() //lint:allow simtime the linter times its own package load for -timing; no simulation is running
	pkgs, err := analysis.Load(".", patterns...)
	loadTime := time.Since(loadStart) //lint:allow simtime the linter times its own package load for -timing; no simulation is running
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	findings, timings := analysis.RunWithTimings(pkgs, analyzers)
	if *timing {
		fmt.Fprintf(os.Stderr, "%-12s %v\n", "load", loadTime.Round(time.Microsecond))
		names := make([]string, 0, len(timings))
		for name := range timings {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "%-12s %v\n", name, timings[name].Round(time.Microsecond))
		}
	}
	if len(findings) == 0 {
		return
	}
	cwd, _ := os.Getwd()
	if *jsonOut {
		fmt.Print(analysis.FormatJSON(findings, cwd))
	} else {
		fmt.Print(analysis.Format(findings, cwd))
	}
	os.Exit(1)
}
