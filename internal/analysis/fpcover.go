package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Fpcover closes the loop between config structs and checkpoint
// fingerprints. Resume-compatibility and sweep-dedup both key on a
// fingerprint string (dramctrl's options.fingerprint,
// sweepPointFingerprint, farm.Point.Fingerprint): two runs with equal
// fingerprints are assumed interchangeable. That assumption breaks silently
// every time someone adds a behavior-shaping knob without threading it into
// the fingerprint — resuming a checkpoint under a different page policy
// "works" and produces subtly wrong statistics. Ckptfields (PR 4) guards the
// Save/Restore side of a struct; fpcover guards the identity side.
//
// Structs annotated //fp:check have every named field held to this rule: the
// field must be covered by some fingerprint, or carry an explicit
// //fp:skip <reason> saying why identity does not depend on it (Workers on
// ShardedConfig is the canonical example: sharding must not change results,
// and excluding it from the fingerprint is exactly how that promise is kept
// resumable).
//
// Coverage is indirect by necessity — fingerprints mention flag variables
// (powerDownNs), not config fields (PowerDownIdle) — so three routes count:
//
//  1. Direct mention: the field's name appears (case-insensitively, as an
//     identifier or a word inside a string literal) in the body of any
//     fingerprint function or its transitive program-local callees.
//  2. Assignment flow: some assignment to the field, anywhere in the
//     program, has a right-hand side mentioning a fingerprinted name — the
//     flag feeding the field is fingerprinted even though the field is not.
//  3. Statically fixed: every visible assignment to the field is a
//     compile-time constant, so the field cannot vary between runs.
//
// A field with no visible assignment at all is reported: either it is dead,
// or it is populated somewhere the analyzer cannot see (reflection, JSON),
// and both deserve a human decision recorded as //fp:skip <reason>.
var Fpcover = &Analyzer{
	Name:       "fpcover",
	Doc:        "require //fp:check struct fields to be fingerprint-covered or //fp:skip'd",
	RunProgram: runFpcover,
}

// identLeaves visits the identifiers in root that name a *quantity* rather
// than a namespace: the leaf of every selector chain plus bare identifiers.
// Qualifier chains are deliberately skipped — in f.shard.Workers only
// "Workers" names the knob; counting "shard" would let one fingerprinted
// sibling field cover every field reached through the same struct.
func identLeaves(root ast.Node, visit func(*ast.Ident)) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SelectorExpr:
			visit(v.Sel)
			if !isIdentChain(v.X) {
				ast.Inspect(v.X, walk) // a.b(x).c: x still carries data
			}
			return false
		case *ast.Ident:
			visit(v)
		}
		return true
	}
	ast.Inspect(root, walk)
}

// isIdentChain reports whether e is a pure qualifier chain (a, a.b, a.b.c).
func isIdentChain(e ast.Expr) bool {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return true
		case *ast.SelectorExpr:
			e = v.X
		default:
			return false
		}
	}
}

// valueIdent reports whether id resolves to a value (variable or constant).
// Package names, type names (conversions like sim.Tick) and functions carry
// no run-to-run identity, so neither side of the coverage match counts them.
func valueIdent(pkg *Package, id *ast.Ident) bool {
	switch pkg.Info.Uses[id].(type) {
	case *types.Var, *types.Const:
		return true
	}
	return false
}

// fpMentionSet collects the lowercased identifier names and string-literal
// words mentioned by fingerprint functions and their program-local callees.
// (Nothing in this package may itself be named "*fingerprint*": simlint runs
// on its own source, and a helper matching the root predicate would inject
// its local variable names into every coverage decision.)
func fpMentionSet(prog *Program) map[string]bool {
	var roots []*types.Func
	for fn := range prog.Funcs {
		if strings.Contains(strings.ToLower(fn.Name()), "fingerprint") {
			roots = append(roots, fn)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		pi, pj := prog.Fset.Position(roots[i].Pos()), prog.Fset.Position(roots[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	mentions := map[string]bool{}
	for fn := range prog.ReachableFrom(roots) {
		fi := prog.Funcs[fn]
		if fi == nil {
			continue
		}
		identLeaves(fi.Decl.Body, func(id *ast.Ident) {
			if valueIdent(fi.Pkg, id) {
				mentions[strings.ToLower(id.Name)] = true
			}
		})
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok {
				for _, w := range splitWords(lit.Value) {
					mentions[w] = true
				}
			}
			return true
		})
	}
	return mentions
}

// splitWords lowercases s and splits it on non-alphanumeric runes, so a
// format string like "powerdown=%d,selfrefresh=%d" yields its key words.
func splitWords(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	})
}

// fieldWrite is one visible assignment to a struct field: the RHS expression
// and the package whose type info covers it.
type fieldWrite struct {
	pkg *Package
	rhs ast.Expr
}

// fieldKeyFor renders the stable cross-package identity of a struct field,
// "pkgpath.Struct.Field", from the type of the value it is selected from or
// the composite literal it is written in. A types.Object key would not work
// here: the package declaring the struct is type-checked from source while
// the packages assigning its fields resolve the same struct through gc
// export data, yielding distinct *types.Var objects for one field.
func fieldKeyFor(t types.Type, field string) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field
}

// fieldWrites indexes every program-visible assignment to a struct field,
// through both assignment statements and composite-literal keys.
func fieldWrites(prog *Program) map[string][]fieldWrite {
	out := map[string][]fieldWrite{}
	fieldKey := func(pkg *Package, e ast.Expr) string {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		isField := false
		if s := pkg.Info.Selections[sel]; s != nil {
			v, ok := s.Obj().(*types.Var)
			isField = ok && v.IsField()
		} else if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok {
			isField = v.IsField()
		}
		if !isField {
			return ""
		}
		tv, ok := pkg.Info.Types[sel.X]
		if !ok {
			return ""
		}
		return fieldKeyFor(tv.Type, sel.Sel.Name)
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					if len(st.Lhs) != len(st.Rhs) {
						return true
					}
					for i, lhs := range st.Lhs {
						if key := fieldKey(pkg, lhs); key != "" {
							out[key] = append(out[key], fieldWrite{pkg, st.Rhs[i]})
						}
					}
				case *ast.CompositeLit:
					tv, ok := pkg.Info.Types[st]
					if !ok {
						return true
					}
					for _, elt := range st.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						id, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						if key := fieldKeyFor(tv.Type, id.Name); key != "" {
							out[key] = append(out[key], fieldWrite{pkg, kv.Value})
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// writeMentionsFp reports whether the assignment's RHS references any value
// identifier whose name is in the fingerprint mention set.
func writeMentionsFp(w fieldWrite, mentions map[string]bool) bool {
	found := false
	identLeaves(w.rhs, func(id *ast.Ident) {
		if !found && valueIdent(w.pkg, id) && mentions[strings.ToLower(id.Name)] {
			found = true
		}
	})
	return found
}

func runFpcover(pass *ProgramPass) {
	prog := pass.Prog

	// Find //fp:check structs first; the mention/write indexes are only worth
	// building if any exist.
	type target struct {
		pkg    *Package
		name   string
		fields *ast.FieldList
	}
	var targets []target
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !typeSpecDirective(gd, ts, "fp:check") {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					targets = append(targets, target{pkg, ts.Name.Name, st.Fields})
				}
			}
		}
	}
	if len(targets) == 0 {
		return
	}

	mentions := fpMentionSet(prog)
	writes := fieldWrites(prog)

	for _, t := range targets {
		for _, field := range t.fields.List {
			if reason, ok := fieldDirectiveReason(field, "fp:skip"); ok {
				if reason == "" {
					pass.Reportf(field.Pos(), "//fp:skip on %s.%s needs a reason", t.name, fieldLabel(field))
				}
				continue
			}
			for _, name := range field.Names {
				if mentions[strings.ToLower(name.Name)] {
					continue
				}
				key := t.pkg.Path + "." + t.name + "." + name.Name
				if fieldCovered(writes[key], mentions) {
					continue
				}
				pass.Reportf(name.Pos(),
					"field %s.%s shapes behavior but is not covered by any checkpoint fingerprint; add it to the fingerprint or annotate //fp:skip <reason>",
					t.name, name.Name)
			}
		}
	}
}

// fieldLabel names a field for messages, falling back to the embedded type.
func fieldLabel(field *ast.Field) string {
	if len(field.Names) > 0 {
		return field.Names[0].Name
	}
	return types.ExprString(field.Type)
}

// fieldCovered applies coverage routes 2 and 3: some write flows from a
// fingerprinted name, or all writes are statically fixed.
func fieldCovered(ws []fieldWrite, mentions map[string]bool) bool {
	if len(ws) == 0 {
		return false
	}
	allConst := true
	for _, w := range ws {
		if writeMentionsFp(w, mentions) {
			return true
		}
		if !staticWrite(w.pkg, w.rhs) {
			allConst = false
		}
	}
	return allConst
}

// staticWrite reports whether e cannot vary between runs: a compile-time
// constant, nil, or a composite literal built purely from such values
// (xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64}).
func staticWrite(pkg *Package, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := pkg.Info.Types[e]; ok && (tv.Value != nil || tv.IsNil()) {
		return true
	}
	switch v := e.(type) {
	case *ast.UnaryExpr:
		return v.Op == token.AND && staticWrite(pkg, v.X)
	case *ast.CompositeLit:
		for _, elt := range v.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if !staticWrite(pkg, elt) {
				return false
			}
		}
		return true
	}
	return false
}
