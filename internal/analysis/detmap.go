package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Detmap flags iteration over a map whose results feed ordered output. Go
// randomizes map iteration order on purpose, so any map range that writes
// bytes, appends to a slice, mutates state outside the loop, or picks a value
// to return produces run-to-run differences — the exact failure mode that
// breaks bit-identical sharded stats and byte-identical checkpoint images.
// The blessed pattern (collect the keys, sort them, then iterate the sorted
// slice — see faults.Injector.SaveState) is recognized: a loop whose only
// effect is appending to slices that are sorted before further use is not
// reported. The blessing trusts the calls in the loop body: one that hands
// out identifiers in call order (mem.PacketTable.PacketRef) makes the sorted
// result depend on map order all the same, and is not caught.
//
// Commutative writes stay legal: assigning through a map index, deleting from
// a map, and everything whose targets live inside the loop are
// order-insensitive and pass.
var Detmap = &Analyzer{
	Name: "detmap",
	Doc:  "flag map iteration feeding ordered output unless keys are sorted first",
	Run:  runDetmap,
}

func runDetmap(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			d := &detmapFunc{pass: pass, localFuncs: map[types.Object]*ast.FuncLit{}}
			d.collectLocalFuncs(fd.Body)
			d.walkStmts(fd.Body.List)
		}
	}
}

// detmapFunc analyzes one function declaration.
type detmapFunc struct {
	pass *Pass
	// localFuncs maps variables bound to function literals in this function,
	// so a loop body calling a helper closure is judged by what the closure
	// does (e.g. closeBank mutating an accumulator it captured).
	localFuncs map[types.Object]*ast.FuncLit
}

func (d *detmapFunc) collectLocalFuncs(body *ast.BlockStmt) {
	info := d.pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, rhs := range st.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok {
					continue
				}
				if id, ok := st.Lhs[i].(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						d.localFuncs[obj] = lit
					} else if obj := info.Uses[id]; obj != nil {
						d.localFuncs[obj] = lit
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range st.Values {
				if lit, ok := v.(*ast.FuncLit); ok && i < len(st.Names) {
					if obj := info.Defs[st.Names[i]]; obj != nil {
						d.localFuncs[obj] = lit
					}
				}
			}
		}
		return true
	})
}

// walkStmts descends through statement lists so that when a map range is
// found, the statements following it in the same block are at hand (that is
// where the sort call of the collect-sort-iterate pattern lives).
func (d *detmapFunc) walkStmts(stmts []ast.Stmt) {
	for i, st := range stmts {
		if rs, ok := st.(*ast.RangeStmt); ok {
			if d.isMapRange(rs) {
				d.checkLoop(rs, stmts[i+1:])
			}
		}
		ast.Inspect(st, func(n ast.Node) bool {
			switch b := n.(type) {
			case *ast.BlockStmt:
				if n == st {
					return true
				}
				d.walkStmts(b.List)
				return false
			case *ast.CaseClause:
				d.walkStmts(b.Body)
				return false
			case *ast.CommClause:
				d.walkStmts(b.Body)
				return false
			case *ast.RangeStmt:
				if b != st {
					// Reached through a non-block parent (e.g. a labeled
					// statement); its body is handled via BlockStmt above.
					return true
				}
				d.walkStmts(b.Body.List)
				return false
			case *ast.FuncLit:
				d.walkStmts(b.Body.List)
				return false
			}
			return true
		})
	}
}

func (d *detmapFunc) isMapRange(rs *ast.RangeStmt) bool {
	t := d.pass.Pkg.Info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// appendTarget is one `v = append(v, ...)` accumulation found in a loop body,
// keyed by the printed lvalue so selector targets (st.Origin) match too.
type appendTarget struct {
	key string
	obj types.Object // non-nil for plain identifiers
	pos token.Pos
}

func (d *detmapFunc) checkLoop(rs *ast.RangeStmt, following []ast.Stmt) {
	var sink string
	var sinkPos token.Pos
	var appends []appendTarget
	visited := map[*ast.FuncLit]bool{}

	report := func(pos token.Pos, msg string) {
		if sink == "" {
			sink = msg
			sinkPos = pos
		}
	}

	// scan inspects body for order-sensitive effects; boundary is the node
	// within which declared objects count as local. allowReturn is true only
	// for the loop body proper: a return inside a function literal exits the
	// literal, not the enclosing function, so it picks nothing by map order.
	var scan func(body ast.Node, boundary ast.Node, allowReturn bool)

	info := d.pass.Pkg.Info
	isLocal := func(obj types.Object, boundary ast.Node) bool {
		return obj == nil || (obj.Pos() >= boundary.Pos() && obj.Pos() <= boundary.End())
	}
	rootIdent := func(e ast.Expr) *ast.Ident {
		for {
			switch v := e.(type) {
			case *ast.Ident:
				return v
			case *ast.SelectorExpr:
				e = v.X
			case *ast.IndexExpr:
				e = v.X
			case *ast.StarExpr:
				e = v.X
			case *ast.ParenExpr:
				e = v.X
			default:
				return nil
			}
		}
	}
	objOf := func(id *ast.Ident) types.Object {
		if obj := info.Uses[id]; obj != nil {
			return obj
		}
		return info.Defs[id]
	}
	isMapIndex := func(e ast.Expr) bool {
		ix, ok := ast.Unparen(e).(*ast.IndexExpr)
		if !ok {
			return false
		}
		t := info.TypeOf(ix.X)
		if t == nil {
			return false
		}
		_, isMap := t.Underlying().(*types.Map)
		return isMap
	}

	scan = func(body ast.Node, boundary ast.Node, allowReturn bool) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.FuncLit:
				if st != body {
					// Judge the literal's effects with its own locals scoped
					// out, and without treating its returns as the enclosing
					// function's.
					scan(st.Body, st, false)
					return false
				}
			case *ast.AssignStmt:
				if st.Tok == token.DEFINE {
					return true
				}
				for i, lhs := range st.Lhs {
					lhs = ast.Unparen(lhs)
					root := rootIdent(lhs)
					if root == nil {
						continue
					}
					obj := objOf(root)
					if isLocal(obj, boundary) {
						continue
					}
					if isMapIndex(lhs) {
						continue // m[k] = v is commutative over distinct keys
					}
					// v = append(v, ...) is the collect half of the blessed
					// pattern; defer judgment until we see whether it is
					// sorted afterwards.
					if st.Tok == token.ASSIGN && len(st.Lhs) == len(st.Rhs) {
						if call, ok := ast.Unparen(st.Rhs[i]).(*ast.CallExpr); ok && isBuiltinAppend(info, call) {
							appends = append(appends, appendTarget{key: types.ExprString(lhs), obj: obj, pos: st.Pos()})
							continue
						}
					}
					report(st.Pos(), fmt.Sprintf("writes %s", types.ExprString(lhs)))
				}
			case *ast.IncDecStmt:
				lhs := ast.Unparen(st.X)
				root := rootIdent(lhs)
				if root == nil || isLocal(objOf(root), boundary) || isMapIndex(lhs) {
					return true
				}
				report(st.Pos(), fmt.Sprintf("writes %s", types.ExprString(lhs)))
			case *ast.SendStmt:
				report(st.Pos(), "sends on a channel")
			case *ast.ReturnStmt:
				if allowReturn && len(st.Results) > 0 {
					report(st.Pos(), "returns a value chosen by iteration order")
				}
			case *ast.CallExpr:
				if f := funcFor(info, st); f != nil {
					if isWriterFunc(f) {
						report(st.Pos(), fmt.Sprintf("writes output via %s", f.Name()))
						return true
					}
				}
				if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok {
					if obj := objOf(id); obj != nil {
						if lit := d.localFuncs[obj]; lit != nil && !visited[lit] {
							visited[lit] = true
							scan(lit.Body, lit, false)
						}
					}
				}
			}
			return true
		})
	}
	scan(rs.Body, rs, true)

	what := types.ExprString(rs.X)
	if sink != "" {
		d.pass.Reportf(rs.For, "map iteration over %s is order-sensitive (%s at line %d); iterate over sorted keys",
			what, sink, d.pass.Fset.Position(sinkPos).Line)
		return
	}
	for _, at := range appends {
		if !sortedAfter(info, at, following) {
			d.pass.Reportf(rs.For, "map iteration over %s appends to %s, which is not sorted before use; sort it or iterate over sorted keys",
				what, at.key)
			return
		}
	}
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isWriterFunc reports whether f emits ordered output: the fmt print family,
// or a method whose name marks it as a writer/encoder.
func isWriterFunc(f *types.Func) bool {
	sig, _ := f.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		switch f.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Print", "Printf", "Println", "Encode":
			return true
		}
		return false
	}
	if f.Pkg() != nil && f.Pkg().Path() == "fmt" {
		switch f.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
	}
	return false
}

// sortedAfter reports whether a sort call mentioning the append target
// appears in the statements after the loop (sort.Slice(keys, ...),
// sort.Strings(keys), slices.Sort(keys), keys.Sort(), ...).
func sortedAfter(info *types.Info, at appendTarget, following []ast.Stmt) bool {
	found := false
	for _, st := range following {
		if found {
			break
		}
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			if !isSortCall(info, call) {
				return true
			}
			for _, arg := range call.Args {
				arg = ast.Unparen(arg)
				if id, ok := arg.(*ast.Ident); ok && at.obj != nil && info.Uses[id] == at.obj {
					found = true
					return false
				}
				if types.ExprString(arg) == at.key {
					found = true
					return false
				}
			}
			// keys.Sort() style: the receiver is the target.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if types.ExprString(sel.X) == at.key {
					found = true
					return false
				}
			}
			return true
		})
	}
	return found
}

// isSortCall recognizes the sort package's functions and any function or
// method whose name contains "Sort" (slices.Sort, SortFunc, SortStableFunc,
// keys.Sort()). The rest of package slices orders nothing: a collect
// followed by slices.Compact alone is still in map order.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	f := funcFor(info, call)
	if f == nil {
		return false
	}
	if f.Pkg() != nil && f.Pkg().Path() == "sort" {
		return true
	}
	return strings.Contains(f.Name(), "Sort") || strings.Contains(f.Name(), "sort")
}
