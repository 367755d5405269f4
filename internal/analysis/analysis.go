// Package analysis is a small, stdlib-only static-analysis framework for the
// simulator core, in the spirit of golang.org/x/tools/go/analysis but with no
// external dependency (the module's go.mod has no require block, and keeping
// it that way is deliberate). The paper's headline claim — an event-based
// controller model fast and trustworthy enough to replace cycle-accurate
// simulation — only holds while the reproduction stays deterministic:
// bit-identical sharded runs and byte-identical checkpoint resume silently
// break the moment someone ranges over a map into an output path, reads wall
// clock inside a sim path, or adds a struct field without wiring it through
// Save/Restore. Those invariants are cheap to enforce mechanically at go-vet
// speed, the same way gem5 gates its event-queue discipline with lint tooling
// rather than re-running regressions after the fact.
//
// An Analyzer inspects one type-checked package at a time and reports
// findings through its Pass. The runner applies //lint:allow suppression
// comments (see suppress.go) and returns findings sorted by position; every
// analyzer runs on every package. The driver lives in cmd/simlint.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"time"
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
	return []*Analyzer{
		Detmap, Simtime, Ckptfields, Eventpool,
		Tickunits, Shardiso,
	}
}

// Run applies every analyzer to every package, filters suppressed findings,
// and returns the remainder sorted by (file, line, analyzer, message).
// Suppression directives that are themselves malformed — and well-formed
// directives that no longer suppress anything — surface as findings from the
// pseudo-analyzer "lint".
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	findings, _ := RunWithTimings(pkgs, analyzers)
	return findings
}

// timed returns how long fn took on the host, for `simlint -timing`.
func timed(fn func()) time.Duration {
	start := time.Now() //lint:allow simtime the linter times its own analyzers; no simulation is running
	fn()
	return time.Since(start) //lint:allow simtime the linter times its own analyzers; no simulation is running
}

// RunWithTimings is Run plus per-analyzer wall-clock, for `simlint -timing`.
func RunWithTimings(pkgs []*Package, analyzers []*Analyzer) ([]Finding, map[string]time.Duration) {
	known := make(map[string]bool, len(analyzers)+1)
	for _, a := range analyzers {
		known[a.Name] = true
	}
	// "lint" is the pseudo-analyzer for directive hygiene findings; making it
	// known lets `//lint:allow lint <reason>` keep a deliberately dormant
	// directive (e.g. one that only fires on another GOARCH).
	known["lint"] = true
	timings := map[string]time.Duration{}

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
			timings[a.Name] += timed(func() {
				a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, findings: &raw})
			})
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
			timings[a.Name] += timed(func() {
				a.Run(&Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, findings: &raw})
			})
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
	return out, timings
}

// relName renders filename relative to baseDir when it lies under it (so
// golden files and CI output are machine-independent), with forward slashes.
func relName(filename, baseDir string) string {
	if baseDir != "" {
		if rel, err := filepath.Rel(baseDir, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filename
}

// Format renders findings one per line as "file:line: [analyzer] message".
func Format(findings []Finding, baseDir string) string {
	var sb strings.Builder
	for _, f := range findings {
		fmt.Fprintf(&sb, "%s:%d: [%s] %s\n", relName(f.Pos.Filename, baseDir), f.Pos.Line, f.Analyzer, f.Message)
	}
	return sb.String()
}

// FormatJSON renders findings as JSON Lines: one object per finding with
// fields file, line, analyzer, message. One object per output line (rather
// than a single array) keeps the stream greppable, diffable against a golden
// line-by-line, and matchable by the GitHub Actions problem matcher, whose
// regexes anchor per log line.
func FormatJSON(findings []Finding, baseDir string) string {
	type rec struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false) // messages quote Go source; keep < and > readable
	for _, f := range findings {
		// Encode cannot fail on this shape; it appends a trailing newline.
		_ = enc.Encode(rec{
			File:     relName(f.Pos.Filename, baseDir),
			Line:     f.Pos.Line,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
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
