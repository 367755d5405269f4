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

// Shardiso guards the sharded runner's isolation contract. During a parallel
// quantum every channel shard advances its own kernel on its own goroutine;
// the only legal cross-shard traffic is the mem.ShardLink pipe, and the only
// legal place to drain it is the single-threaded barrier section between
// quanta (system.Session.Step calls Flush there, after every worker has parked).
// A barrier-only function that becomes reachable from shard-side code — an
// event callback, a port Recv* handler — is a data race that no -race run
// catches until two shards happen to collide, and a determinism leak even
// when it does not crash.
//
// The contract is annotated, not inferred: functions that may only run in
// the barrier section carry //shard:barrier. Shard-side roots are collected
// structurally — every callback passed to sim.NewEvent / NewEventPri /
// Kernel.Call / Kernel.CallIn, and every method named RecvTimingReq,
// RecvTimingResp, RecvReqRetry, RecvRespRetry or HandleEvent (port and probe
// handlers are invoked from inside kernel callbacks). The analyzer walks the
// conservative reference graph (a reference counts as a potential call, so
// function-valued fields like the link's deliver hook are followed) and
// reports any barrier-annotated function reached, with the offending chain.
//
// False-positive policy: reference-as-call conservatism can flag a function
// whose address is taken shard-side but only invoked in the barrier; if the
// indirection is genuinely barrier-only, restructure so the reference moves
// out of shard-reachable code.
var Shardiso = &Analyzer{
	Name:       "shardiso",
	Doc:        "forbid shard-side (kernel-callback-reachable) code from reaching //shard:barrier functions",
	RunProgram: runShardiso,
}

// kernelCallbackArg returns the callback argument of a sim event-scheduling
// call, or nil: NewEvent(name, fn), NewEventPri(name, pri, fn),
// (*Kernel).Call(name, when, fn), (*Kernel).CallIn(name, delay, fn).
func kernelCallbackArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	f := funcFor(info, call)
	if f == nil || f.Pkg() == nil || !strings.HasSuffix(f.Pkg().Path(), "internal/sim") {
		return nil
	}
	switch f.Name() {
	case "NewEvent", "NewEventPri", "Call", "CallIn":
		if n := len(call.Args); n > 0 {
			return call.Args[n-1]
		}
	}
	return nil
}

// portHandlerNames are method names invoked from inside kernel callbacks by
// the port/probe plumbing; their bodies are shard-side by construction.
var portHandlerNames = map[string]bool{
	"RecvTimingReq":  true,
	"RecvTimingResp": true,
	"RecvReqRetry":   true,
	"RecvRespRetry":  true,
	"HandleEvent":    true,
}

func runShardiso(pass *ProgramPass) {
	prog := pass.Prog

	barrier := map[*types.Func]bool{}
	for _, fn := range prog.DirectiveFuncs("shard:barrier") {
		barrier[fn] = true
	}
	if len(barrier) == 0 {
		return
	}

	// Collect shard-side roots. Named-function callbacks become roots
	// directly; literal callbacks contribute every function they reference. A
	// barrier function referenced straight from a callback is not a root but
	// an immediate finding — record where.
	rootSet := map[*types.Func]bool{}
	direct := map[*types.Func]token.Pos{}
	var roots []*types.Func
	addRoot := func(fn *types.Func, at token.Pos) {
		if fn == nil || rootSet[fn] {
			return
		}
		if _, local := prog.Funcs[fn]; !local {
			return
		}
		if barrier[fn] {
			if _, ok := direct[fn]; !ok {
				direct[fn] = at
			}
			return
		}
		rootSet[fn] = true
		roots = append(roots, fn)
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil && portHandlerNames[d.Name.Name] {
						if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok && !barrier[fn] {
							addRoot(fn, d.Pos())
						}
					}
				case *ast.CallExpr:
					arg := kernelCallbackArg(pkg.Info, d)
					if arg == nil {
						return true
					}
					switch cb := ast.Unparen(arg).(type) {
					case *ast.FuncLit:
						for _, ref := range prog.refsIn(pkg, cb.Body) {
							addRoot(ref, cb.Pos())
						}
					case *ast.Ident:
						if f, ok := pkg.Info.Uses[cb].(*types.Func); ok {
							addRoot(prog.canon(f), cb.Pos())
						}
					case *ast.SelectorExpr:
						if f, ok := pkg.Info.Uses[cb.Sel].(*types.Func); ok {
							addRoot(prog.canon(f), cb.Pos())
						}
					}
				}
				return true
			})
		}
	}

	// Deterministic BFS order: roots sorted by position, and each function's
	// Refs are already offset-sorted.
	sort.Slice(roots, func(i, j int) bool {
		pi, pj := prog.Fset.Position(roots[i].Pos()), prog.Fset.Position(roots[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})

	// Barrier functions must not expand the frontier: reaching pipe.flush via
	// ShardLink.Flush is the legal route, and edges out of a barrier function
	// are barrier-side by definition.
	pred := map[*types.Func]*types.Func{}
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		pred[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if barrier[fn] {
			continue
		}
		for _, callee := range prog.Refs(fn) {
			if _, ok := pred[callee]; ok {
				continue
			}
			pred[callee] = fn
			queue = append(queue, callee)
		}
	}

	var hit []*types.Func
	for fn := range barrier {
		if p, ok := pred[fn]; ok && p != nil {
			hit = append(hit, fn)
		} else if _, ok := direct[fn]; ok {
			hit = append(hit, fn)
		}
	}
	sort.Slice(hit, func(i, j int) bool {
		pi, pj := prog.Fset.Position(hit[i].Pos()), prog.Fset.Position(hit[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	for _, fn := range hit {
		fi := prog.Funcs[fn]
		chain := ""
		if p, ok := pred[fn]; ok && p != nil {
			chain = prog.PathTo(pred, fn)
		} else {
			at := prog.Fset.Position(direct[fn])
			chain = fmt.Sprintf("kernel callback at %s:%d -> %s",
				filepath.Base(at.Filename), at.Line, FuncDisplayName(fn))
		}
		pass.Reportf(fi.Decl.Name.Pos(),
			"//shard:barrier function %s is reachable from shard-side code: %s; barrier functions may only run in the single-threaded section between quanta",
			FuncDisplayName(fn), chain)
	}
}
