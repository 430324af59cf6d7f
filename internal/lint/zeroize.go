package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// zeroizeScope is the set of packages that handle live key material.
var zeroizeScope = []string{"secure", "protocol", "amplify", "group", "pipeline", "reconcile"}

func init() {
	register(&Analyzer{
		Name:     "zeroize",
		Doc:      "intermediate key-material buffers must be wiped before the function returns",
		Severity: Error,
		Run:      runZeroize,
	})
}

// runZeroize flags local []byte variables that hold key material (name
// contains "key"/"secret") and neither escape the function — via a
// return statement or a composite literal — nor get wiped before it
// ends. Go does not scrub dead heap memory: an un-wiped intermediate
// (e.g. a Bloom-domain key image) lingers until the GC reuses the
// allocation, exactly the residue a memory-disclosure bug or a core
// dump hands to an attacker. Wipe with secure.Wipe (or an explicit
// zeroing loop), which the analyzer recognizes.
func runZeroize(pass *Pass) {
	if !pass.InScope(zeroizeScope...) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if isGenerated(f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncZeroize(pass, info, fn)
		}
	}
}

// secretLocal is one candidate key-material variable.
type secretLocal struct {
	id  *ast.Ident
	obj types.Object
}

func checkFuncZeroize(pass *Pass, info *types.Info, fn *ast.FuncDecl) {
	// Collect locals declared in this function whose name and type mark
	// them as key material. Parameters are excluded: they belong to the
	// caller, and wiping them here would destroy shared buffers.
	var locals []secretLocal
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closures are analyzed with their own frame rules
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil || !isByteSlice(obj.Type()) || !isKeyMaterialName(id.Name) {
					continue
				}
				locals = append(locals, secretLocal{id, obj})
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				if id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil || !isByteSlice(obj.Type()) || !isKeyMaterialName(id.Name) {
					continue
				}
				locals = append(locals, secretLocal{id, obj})
			}
		}
		return true
	})
	if len(locals) == 0 {
		return
	}
	for _, loc := range locals {
		if escapesOrWiped(info, fn.Body, loc.obj) {
			continue
		}
		pass.Reportf(loc.id.Pos(),
			"key material %q is neither returned nor wiped before %s returns; call secure.Wipe(%s) when it is dead",
			loc.id.Name, fn.Name.Name, loc.id.Name)
	}
}

// escapesOrWiped reports whether the object escapes the function (return
// statement or composite literal, where ownership transfers) or is
// explicitly wiped (a recognized wipe call or a zeroing range loop).
func escapesOrWiped(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if usesObject(info, n, obj) {
				ok = true
				return false
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if usesObject(info, elt, obj) {
					ok = true
					return false
				}
			}
		case *ast.CallExpr:
			if isWipeCall(n) {
				for _, arg := range n.Args {
					if usesObject(info, arg, obj) {
						ok = true
						return false
					}
				}
			}
		case *ast.RangeStmt:
			if isZeroingLoop(info, n, obj) {
				ok = true
				return false
			}
		}
		return true
	})
	return ok
}

// wipeNames are the function names the analyzer accepts as wipes.
var wipeNames = map[string]bool{
	"Wipe": true, "wipe": true,
	"Zero": true, "zero": true,
	"Zeroize": true, "zeroize": true,
	"Scrub": true, "scrub": true,
}

func isWipeCall(call *ast.CallExpr) bool {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return wipeNames[fn.Name]
	case *ast.SelectorExpr:
		return wipeNames[fn.Sel.Name]
	}
	return false
}

// isZeroingLoop recognizes the manual wipe idiom:
//
//	for i := range buf { buf[i] = 0 }
func isZeroingLoop(info *types.Info, loop *ast.RangeStmt, obj types.Object) bool {
	id, ok := ast.Unparen(loop.X).(*ast.Ident)
	if !ok || info.Uses[id] != obj {
		return false
	}
	for _, stmt := range loop.Body.List {
		assign, ok := stmt.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			continue
		}
		idx, ok := assign.Lhs[0].(*ast.IndexExpr)
		if !ok {
			continue
		}
		base, ok := ast.Unparen(idx.X).(*ast.Ident)
		if !ok || info.Uses[base] != obj {
			continue
		}
		if lit, ok := assign.Rhs[0].(*ast.BasicLit); ok && lit.Value == "0" {
			return true
		}
	}
	return false
}
