// Command simlint runs the repository's static-analysis pass
// (internal/analysis) over the module and reports findings as
// "file:line: [analyzer] message". It exits 0 when the packages are clean,
// 1 on any finding (nothing suppresses one: fix the code), and 2 when the
// packages cannot be loaded or a flag is wrong. Every analyzer runs on every
// package.
//
// Usage:
//
//	go run ./cmd/simlint ./...   # lint the module
//	go run ./cmd/simlint -list   # show the analyzer set
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

// errFindings marks a run that printed findings; main only sets the exit
// status.
var errFindings = errors.New("findings")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, errFindings) {
		fmt.Fprintln(os.Stderr, "simlint:", err)
	}
	os.Exit(exitStatus(err))
}

// exitStatus maps run's result to the exit code: 0 clean, 1 findings, 2 the
// packages could not be linted.
func exitStatus(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errFindings):
		return 1
	}
	return 2
}

// run lints the packages the arguments name (./... when none) from the
// working directory and prints the findings to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list registered analyzers and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc)
		}
		return nil
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		return err
	}
	findings := analysis.Run(pkgs, analyzers)
	if len(findings) == 0 {
		return nil
	}
	cwd, _ := os.Getwd()
	fmt.Fprint(out, analysis.Format(findings, cwd))
	return errFindings
}
