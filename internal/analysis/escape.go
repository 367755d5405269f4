package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// The compiler escape gate. The //hot:path functions — and everything they
// transitively call inside the module — must not heap-allocate in steady
// state. Two referees observe that property directly: the AllocsPerRun gates
// measure it on the traffic they drive, and the gc compiler's own escape
// analysis (`go build -gcflags='-m -l'`) reports every construct it lowers to
// a heap allocation, exercised or not. TestHotEscapeAgreement is the static
// half: each "escapes to heap" / "moved to heap" diagnostic inside a hot
// function's span must fall in an exempt region or under a `//hot:allow
// <reason>` marker (on the reported line or the one above), and a marker the
// compiler reports nothing under is stale. This file supplies what the test
// needs: the diagnostics, the hot-path reach, and the exempt regions.
//
// Exempt regions match the conditions the AllocsPerRun gates run under:
// statements guarded by the obs nil-hub fast path (`if hub != nil {…}` bodies
// and everything after an `if hub == nil { return }` early exit) never
// execute in a zero-alloc run and may allocate freely — that is the whole
// point of the Probes.OrNil design; and panic calls are failure-path
// diagnostics.

// EscapeDiag is one heap diagnostic parsed from `go build -gcflags=-m`.
type EscapeDiag struct {
	File string // path as the compiler printed it (relative to the build dir)
	Line int
	Msg  string
}

// ParseEscapeOutput extracts the heap diagnostics from -m output, dropping
// the inlining chatter and the non-allocating verdicts ("does not escape").
func ParseEscapeOutput(out string) []EscapeDiag {
	var diags []EscapeDiag
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
			continue
		}
		// file.go:12:34: msg
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 {
			continue
		}
		ln, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		diags = append(diags, EscapeDiag{
			File: parts[0],
			Line: ln,
			Msg:  strings.TrimSpace(parts[3]),
		})
	}
	return diags
}

// isObsHub reports whether t is (a pointer to) the named type Hub from a
// package ending in "internal/obs".
func isObsHub(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Hub" || named.Obj().Pkg() == nil {
		return false
	}
	return strings.HasSuffix(named.Obj().Pkg().Path(), "internal/obs")
}

// hubNilCond reports whether cond contains `h <op> nil` for a hub-typed h,
// searching through && / || chains.
func hubNilCond(info *types.Info, cond ast.Expr, op token.Token) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if found {
			return false
		}
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		if b.Op != op {
			return true
		}
		x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
		for _, pair := range [][2]ast.Expr{{x, y}, {y, x}} {
			if id, ok := pair[1].(*ast.Ident); ok && id.Name == "nil" {
				if t := info.TypeOf(pair[0]); t != nil && isObsHub(t) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// endsInReturn reports whether the block's last statement is a return.
func endsInReturn(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

// exemptRegion is one source extent of a hot function that never runs in a
// zero-allocation steady state.
type exemptRegion struct{ from, to token.Pos }

// exemptRegions returns fd's exempt extents: nil-hub guard bodies, the tail
// of a block after an `if hub == nil { return }` early exit, and panic calls.
func exemptRegions(info *types.Info, fd *ast.FuncDecl) []exemptRegion {
	var out []exemptRegion
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.IfStmt:
			if hubNilCond(info, st.Cond, token.NEQ) {
				out = append(out, exemptRegion{st.Body.Pos(), st.Body.End()})
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					out = append(out, exemptRegion{st.Pos(), st.End()})
				}
			}
		case *ast.BlockStmt:
			for _, s := range st.List {
				ifs, ok := s.(*ast.IfStmt)
				if ok && ifs.Else == nil && hubNilCond(info, ifs.Cond, token.EQL) && endsInReturn(ifs.Body) {
					out = append(out, exemptRegion{ifs.End(), st.End()})
				}
			}
		}
		return true
	})
	return out
}

// HotSpan is the file extent of one function on the hot path, with the lines
// where allocation is tolerated.
type HotSpan struct {
	Name       string // display name, e.g. core.(*Controller).RecvTimingReq
	Root       string // the //hot:path root it was reached from (== Name for roots)
	File       string
	Start, End int          // 1-based line range of the declaration
	Exempt     map[int]bool // lines inside exempt regions (guards, panic calls)
}

// HotSpans returns a span for every function on the hot path: the //hot:path
// roots expanded through the call edges outside exempt regions — a call that
// happens solely under a probe guard is not on the zero-alloc path — to every
// module-local callee, in deterministic BFS order.
func HotSpans(prog *Program) []HotSpan {
	type item struct{ fn, root *types.Func }
	visited := map[*types.Func]bool{}
	var queue []item
	for _, r := range prog.DirectiveFuncs("hot:path") {
		visited[r] = true
		queue = append(queue, item{fn: r, root: r})
	}
	var spans []HotSpan
	for i := 0; i < len(queue); i++ {
		it := queue[i]
		fi := prog.Funcs[it.fn]
		info := fi.Pkg.Info
		exempt := exemptRegions(info, fi.Decl)

		start := prog.Fset.Position(it.fn.Pos())
		span := HotSpan{
			Name:   FuncDisplayName(it.fn),
			Root:   FuncDisplayName(it.root),
			File:   start.Filename,
			Start:  start.Line,
			End:    prog.Fset.Position(fi.Decl.End()).Line,
			Exempt: map[int]bool{},
		}
		for _, r := range exempt {
			last := prog.Fset.Position(r.to).Line
			for l := prog.Fset.Position(r.from).Line; l <= last; l++ {
				span.Exempt[l] = true
			}
		}
		spans = append(spans, span)

		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, r := range exempt {
				if r.from <= call.Pos() && call.Pos() < r.to {
					return true
				}
			}
			callee := prog.canon(funcFor(info, call)) // cross-package callees resolve to import-loaded objects
			if callee == nil || visited[callee] {
				return true
			}
			cfi, local := prog.Funcs[callee]
			if !local {
				return true
			}
			visited[callee] = true
			root := it.root
			if FuncDirective(cfi.Decl, "hot:path") {
				root = callee
			}
			queue = append(queue, item{fn: callee, root: root})
			return true
		})
	}
	return spans
}
