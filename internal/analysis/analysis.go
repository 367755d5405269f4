// Package analysis is a small, stdlib-only static-analysis framework for the
// simulator core, in the spirit of golang.org/x/tools/go/analysis but with no
// external dependency (the module's go.mod has no require block, and keeping
// it that way is deliberate). It holds only the checks a test run cannot
// make: a map ranged into ordered output passes any run whose draw happens to
// come out sorted, and a nanosecond count reinterpreted as ticks passes every
// test that does not look at that value.
//
// An Analyzer inspects one type-checked package at a time and reports
// findings through its Pass. The runner returns every finding, sorted by
// position; every analyzer runs on every package, and nothing silences a
// finding but fixing the code. The driver lives in cmd/simlint.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one named check; it sees one type-checked package at a time.
type Analyzer struct {
	// Name identifies the analyzer in findings. Lowercase, no spaces.
	Name string
	// Doc is a one-line description shown by `simlint -list`.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported problem.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding as "file:line: [analyzer] message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzers returns the registered analyzer set, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Detmap, Tickunits}
}

// Run applies every analyzer to every package and returns the findings
// sorted by (file, line, analyzer, message).
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, findings: &out})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// Format renders findings one per line as "file:line: [analyzer] message".
// File names under baseDir are relative to it, with forward slashes, so
// golden files are machine-independent.
func Format(findings []Finding, baseDir string) string {
	var sb strings.Builder
	for _, f := range findings {
		name := f.Pos.Filename
		if rel, err := filepath.Rel(baseDir, name); baseDir != "" && err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
		fmt.Fprintf(&sb, "%s:%d: [%s] %s\n", name, f.Pos.Line, f.Analyzer, f.Message)
	}
	return sb.String()
}

// WithStack walks the AST under root, giving the callback the path of nodes
// from root to n (inclusive). Returning false skips n's children.
func WithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !fn(n, stack) {
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// funcFor resolves a call expression to the *types.Func it invokes, or nil
// (builtins, function-typed variables, type conversions).
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	f, _ := obj.(*types.Func)
	return f
}
