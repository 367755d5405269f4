// Package analysis is a small, stdlib-only static-analysis framework for the
// simulator core, in the spirit of golang.org/x/tools/go/analysis but with no
// external dependency (the module's go.mod has no require block, and keeping
// it that way is deliberate). It holds only the checks a test run cannot
// make: a map ranged into ordered output passes any run whose draw happens to
// come out sorted, a field missing from a checkpoint image passes every resume
// that never crosses a state where it matters, and a nanosecond count
// reinterpreted as ticks passes every test that does not look at that value.
//
// An Analyzer inspects one type-checked package at a time and reports
// findings through its Pass. The runner applies //lint:allow suppression
// comments (see suppress.go) and returns findings sorted by position; every
// analyzer runs on every package. The driver lives in cmd/simlint.
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

// Analyzer is one named check. Package-local analyzers set Run and see one
// type-checked package at a time; whole-program analyzers set RunProgram and
// see every loaded package through a shared Program index (call graph,
// directives, cross-package declarations). Exactly one of the two must be
// set.
type Analyzer struct {
	// Name identifies the analyzer in findings and //lint:allow directives.
	// Lowercase, no spaces.
	Name string
	// Doc is a one-line description shown by `simlint -list`.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(*Pass)
	// RunProgram inspects the whole loaded program at once. Findings are
	// attributed to the package owning the reported position, where
	// //lint:allow suppression applies as usual.
	RunProgram func(*ProgramPass)
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
	return []*Analyzer{Detmap, Ckptfields, Tickunits, Shardiso}
}

// Run applies every analyzer to every package, filters suppressed findings,
// and returns the remainder sorted by (file, line, analyzer, message).
// Suppression directives that are themselves malformed — and well-formed
// directives that no longer suppress anything — surface as findings from the
// pseudo-analyzer "lint".
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	// Whole-program analyzers run once; their findings are bucketed into the
	// owning package so suppression applies identically to both analyzer
	// kinds.
	progFindings := map[*Package][]Finding{}
	var programAnalyzers []*Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			programAnalyzers = append(programAnalyzers, a)
		}
	}
	if len(programAnalyzers) > 0 && len(pkgs) > 0 {
		prog := BuildProgram(pkgs)
		for _, a := range programAnalyzers {
			var raw []Finding
			a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, findings: &raw})
			for _, f := range raw {
				if owner := prog.fileOwner[f.Pos.Filename]; owner != nil {
					progFindings[owner] = append(progFindings[owner], f)
				}
			}
		}
	}

	var out []Finding
	for _, pkg := range pkgs {
		raw := progFindings[pkg]
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			a.Run(&Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, findings: &raw})
		}
		out = append(out, applySuppressions(pkg, raw, known)...)
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
