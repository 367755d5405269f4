package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Whole-program view. Whether a //hot:path function allocates depends on what
// its callees do, across the entire module. Program indexes every loaded
// package's declarations and directive annotations once for the escape gate.

// FuncInfo pairs a declared function with the package that declares it.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Program is the whole-module index the escape gate walks.
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
// Without canonicalisation every cross-package call edge — a cmd front-end
// calling core.NewController — would silently fail the Funcs lookup and
// vanish. canon returns f unchanged when it has no declared counterpart
// (stdlib, interface methods).
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

// Directives.
//
// The annotation vocabulary (see DESIGN.md §5):
//
//	//hot:path                — function and its module-local callees must
//	                            stay allocation-free (the compiler escape
//	                            gate, escape.go)
//	//hot:allow <reason>      — deliberate heap site on a hot path; read
//	                            only by the escape gate
//
// A directive is its own comment line: "//hot:path", optionally followed by
// a space and a note ("//hot:path FR-FCFS scan"). "//hot:pathological" does
// not match. Every directive follows gofmt's //name:value shape on purpose:
// the doc-comment formatter (Go ≥1.19) inserts a space into any other
// comment form ("//hot" becomes "// hot"), silently detaching it.

// FuncDirective reports whether a line of fd's doc comment is the directive.
func FuncDirective(fd *ast.FuncDecl, name string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, "//"+name); ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

// DirectiveFuncs returns every declared function annotated with the
// directive, in deterministic (file, offset) order.
func (p *Program) DirectiveFuncs(name string) []*types.Func {
	var out []*types.Func
	for fn, fi := range p.Funcs {
		if FuncDirective(fi.Decl, name) {
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
