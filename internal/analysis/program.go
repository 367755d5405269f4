package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Whole-program view. Whether a //hot:path function allocates depends on what
// its callees do, and whether shard-side code can reach the barrier section is
// a reachability question over the entire module. Program indexes every
// loaded package once — declarations, a reference graph, directive
// annotations — so the escape gate and shardiso share one traversal.

// FuncInfo pairs a declared function with the package that declares it.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Pkg  *Package

	refs []*types.Func // lazily computed program-local references
}

// Program is the whole-module index handed to program-level analyzers.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet
	// Funcs maps every declared function or method with a body to its
	// declaration, across all loaded packages.
	Funcs map[*types.Func]*FuncInfo

	// byKey maps a stable (package path, receiver, name) key to the
	// source-checked declaration, to bridge the object-identity split
	// described at canon.
	byKey map[string]*types.Func
}

// BuildProgram indexes the loaded packages. The same Fset must underlie all
// of them (Load guarantees this for one call; callers merging Loads must not).
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:  pkgs,
		Funcs: map[*types.Func]*FuncInfo{},
		byKey: map[string]*types.Func{},
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					p.Funcs[fn] = &FuncInfo{Decl: fd, Pkg: pkg}
					if k := funcKey(fn); k != "" {
						p.byKey[k] = fn
					}
				}
			}
		}
	}
	return p
}

// funcKey renders a stable cross-package identity for a declared function or
// method: "pkgpath.Recv.Name". Pointer receivers are normalised to the base
// type (a name can only be bound once per base type, so this is unambiguous).
func funcKey(f *types.Func) string {
	if f.Pkg() == nil {
		return ""
	}
	key := f.Pkg().Path() + "."
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		key += named.Obj().Name() + "."
	}
	return key + f.Name()
}

// canon maps a *types.Func to the source-checked declaration Program indexed.
// Object identity splits across packages: internal/core type-checked from
// source yields one *types.Func per method, but a package that imports it
// resolves the same method through gc export data to a different object.
// Without canonicalisation every cross-package edge in the reference graph —
// a cmd front-end calling core.NewController, a callback naming a barrier
// method — would silently fail the Funcs lookup and vanish. canon returns f
// unchanged when it has no declared counterpart (stdlib, interface methods).
func (p *Program) canon(f *types.Func) *types.Func {
	if f == nil {
		return nil
	}
	if _, ok := p.Funcs[f]; ok {
		return f
	}
	if c, ok := p.byKey[funcKey(f)]; ok {
		return c
	}
	return f
}

// Refs returns every program-local function referenced (called, taken as a
// value, assigned to a field) inside fn's body, including inside function
// literals it declares. Treating a reference as a potential call makes
// reachability conservative in the presence of function-valued fields — the
// link's deliver hook, the session's OnStep — which is the right direction
// for an isolation checker: a function whose address escapes into a callback
// slot may run wherever that slot is invoked.
func (p *Program) Refs(fn *types.Func) []*types.Func {
	fi := p.Funcs[fn]
	if fi == nil {
		return nil
	}
	if fi.refs == nil {
		fi.refs = p.refsIn(fi.Pkg, fi.Decl.Body)
		if len(fi.refs) == 0 {
			fi.refs = []*types.Func{} // distinguish "computed, empty" from "not yet"
		}
	}
	return fi.refs
}

// refsIn collects program-local functions referenced under root.
func (p *Program) refsIn(pkg *Package, root ast.Node) []*types.Func {
	seen := map[*types.Func]bool{}
	var out []*types.Func
	ast.Inspect(root, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		f, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		f = p.canon(f) // cross-package uses resolve to import-loaded objects
		if seen[f] {
			return true
		}
		if _, local := p.Funcs[f]; local {
			seen[f] = true
			out = append(out, f)
		}
		return true
	})
	// Deterministic order for deterministic finding order downstream.
	sort.Slice(out, func(i, j int) bool {
		return p.Fset.Position(out[i].Pos()).Offset < p.Fset.Position(out[j].Pos()).Offset
	})
	return out
}

// PathTo reconstructs the root→fn chain from a breadth-first predecessor map
// as "a → b → c" using package-qualified names.
func (p *Program) PathTo(pred map[*types.Func]*types.Func, fn *types.Func) string {
	var chain []string
	for f := fn; f != nil; f = pred[f] {
		chain = append(chain, FuncDisplayName(f))
		if pred[f] == nil {
			break
		}
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return strings.Join(chain, " -> ")
}

// FuncDisplayName renders a function for messages: "pkg.Name" or
// "pkg.(*Recv).Name".
func FuncDisplayName(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			star = "*"
		}
		if named, ok := t.(*types.Named); ok {
			name = "(" + star + named.Obj().Name() + ")." + name
		}
	}
	if f.Pkg() != nil {
		if parts := strings.Split(f.Pkg().Path(), "/"); len(parts) > 0 {
			name = parts[len(parts)-1] + "." + name
		}
	}
	return name
}

// ProgramPass is the whole-program analogue of Pass.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Directives.
//
// The annotation vocabulary (see DESIGN.md §5):
//
//	//hot:path                — function and its module-local callees must
//	                            stay allocation-free (the compiler escape
//	                            gate, escape.go)
//	//hot:allow <reason>      — deliberate heap site on a hot path; read
//	                            only by the escape gate
//	//shard:barrier           — function may only run in the single-threaded
//	                            barrier section (shardiso)
//
// A directive is its own comment line: "//hot:path", optionally followed by
// a space and a note ("//hot:path FR-FCFS scan"). "//hot:pathological" does
// not match. Every directive follows gofmt's //name:value shape on purpose:
// the doc-comment formatter (Go ≥1.19) inserts a space into any other
// comment form ("//hot" becomes "// hot"), silently detaching it.

// commentDirective reports whether any line of the comment groups is the
// given directive, returning its trailing note.
func commentDirective(name string, groups ...*ast.CommentGroup) (note string, ok bool) {
	prefix := "//" + name
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, prefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, prefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// FuncDirective reports whether fd's doc comment carries the directive.
func FuncDirective(fd *ast.FuncDecl, name string) (string, bool) {
	return commentDirective(name, fd.Doc)
}

// DirectiveFuncs returns every declared function annotated with the
// directive, in deterministic (file, offset) order.
func (p *Program) DirectiveFuncs(name string) []*types.Func {
	var out []*types.Func
	for fn, fi := range p.Funcs {
		if _, ok := FuncDirective(fi.Decl, name); ok {
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := p.Fset.Position(out[i].Pos()), p.Fset.Position(out[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return out
}
