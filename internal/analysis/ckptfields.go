package analysis

import (
	"go/ast"
	"go/types"
)

// Ckptfields cross-references every Checkpointable component's struct fields
// against the identifiers its CheckpointSave/CheckpointRestore bodies (and
// the same-package helpers they call) mention. A field that is neither
// touched by the save/restore path nor annotated `//ckpt:skip <reason>` is
// the exact gap that silently corrupts resume: someone adds state to a
// component, forgets the checkpoint hooks, and every checkpoint taken from
// then on restores to a subtly different simulation. The check is
// name-based — a field counts as persisted if its name appears anywhere in
// the transitive save/restore bodies — which trades a little precision for
// zero false panics on delegation patterns (saveDP/loadDP, outQueue.save).
var Ckptfields = &Analyzer{
	Name: "ckptfields",
	Doc:  "flag Checkpointable struct fields neither persisted nor annotated //ckpt:skip",
	Run:  runCkptfields,
}

func runCkptfields(pass *Pass) {
	info := pass.Pkg.Info

	// Index the package: function declarations by object (for the transitive
	// walk), struct type specs by name, and Checkpoint hooks by receiver.
	decls := map[types.Object]*ast.FuncDecl{}
	specs := map[string]*ast.TypeSpec{}
	saves := map[string]*ast.FuncDecl{}
	restores := map[string]*ast.FuncDecl{}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if obj := info.Defs[d.Name]; obj != nil && d.Body != nil {
					decls[obj] = d
				}
				if d.Recv == nil || len(d.Recv.List) != 1 {
					continue
				}
				recv := recvTypeName(d.Recv.List[0].Type)
				if recv == "" {
					continue
				}
				switch d.Name.Name {
				case "CheckpointSave":
					saves[recv] = d
				case "CheckpointRestore":
					restores[recv] = d
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if _, isStruct := ts.Type.(*ast.StructType); isStruct {
							specs[ts.Name.Name] = ts
						}
					}
				}
			}
		}
	}

	for typeName, saveDecl := range saves {
		restoreDecl, ok := restores[typeName]
		if !ok {
			continue
		}
		ts, ok := specs[typeName]
		if !ok {
			continue
		}
		mentioned := map[string]bool{}
		visited := map[*ast.FuncDecl]bool{}
		var visit func(d *ast.FuncDecl)
		visit = func(d *ast.FuncDecl) {
			if visited[d] {
				return
			}
			visited[d] = true
			ast.Inspect(d.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				mentioned[id.Name] = true
				if obj := info.Uses[id]; obj != nil {
					if dd := decls[obj]; dd != nil {
						visit(dd)
					}
				}
				return true
			})
		}
		visit(saveDecl)
		visit(restoreDecl)

		st := ts.Type.(*ast.StructType)
		for _, field := range st.Fields.List {
			names := field.Names
			if len(names) == 0 {
				// Embedded field: use the type's base name.
				if id := embeddedName(field.Type); id != nil {
					names = []*ast.Ident{id}
				}
			}
			for _, name := range names {
				if mentioned[name.Name] {
					continue
				}
				reason, hasSkip := commentDirective("ckpt:skip", field.Doc, field.Comment)
				if hasSkip {
					if reason == "" {
						pass.Reportf(field.Pos(), "//ckpt:skip on %s.%s needs a reason", typeName, name.Name)
					}
					continue
				}
				pass.Reportf(field.Pos(), "field %s.%s is not referenced by CheckpointSave/CheckpointRestore; persist it or annotate //ckpt:skip <reason>",
					typeName, name.Name)
			}
		}
	}
}

// recvTypeName returns the receiver's base type name ("Controller" for both
// (c *Controller) and (c Controller)).
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// embeddedName returns the identifier naming an embedded field's type.
func embeddedName(e ast.Expr) *ast.Ident {
	switch t := e.(type) {
	case *ast.Ident:
		return t
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return id
		}
	case *ast.SelectorExpr:
		return t.Sel
	}
	return nil
}
