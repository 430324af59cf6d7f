package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// allocboundScope: the packages that decode hostile wire bytes.
var allocboundScope = []string{"transport", "server", "protocol", "group"}

func init() {
	register(&Analyzer{
		Name:     "allocbound",
		Doc:      "allocation sizes and loop bounds derived from decoded wire input need a cap check first",
		Severity: Error,
		Run:      runAllocbound,
	})
}

func runAllocbound(pass *Pass) {
	if !pass.InScope(allocboundScope...) {
		return
	}
	ann := collectAnnotations([]*Package{pass.Pkg})
	for _, f := range pass.Pkg.Files {
		if isGenerated(f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			newAllocCheck(pass, ann, fn).run()
		}
	}
}

// posRange is a half-open source interval in which a hostile value is
// known to be bounded.
type posRange struct{ from, to token.Pos }

// allocCheck analyzes one function. Hostile entities are identified by a
// string key: locals by object identity, wire-struct field reads by their
// rendered selector (so `e.Round` stays one entity across uses). A cap
// check clears an entity over a source interval:
//
//   - exit guard — `if x > Max { return/continue/break/panic }` (also as a
//     switch case): cleared from the end of the guard statement to the end
//     of the function. The comparison must bound the hostile side from
//     above; `if x < lowWater { continue }` proves nothing about how big
//     x is.
//   - in-body guard — `if x <= Max { ... }`: cleared inside the body.
type allocCheck struct {
	pass *Pass
	ann  *annotations
	fn   *ast.FuncDecl

	tainted map[string]bool
	cleared map[string][]posRange
	changed bool
}

func newAllocCheck(pass *Pass, ann *annotations, fn *ast.FuncDecl) *allocCheck {
	return &allocCheck{
		pass:    pass,
		ann:     ann,
		fn:      fn,
		tainted: make(map[string]bool),
		cleared: make(map[string][]posRange),
	}
}

func (ac *allocCheck) run() {
	// The clear set grows monotonically; taint is recomputed from
	// scratch against it each round, so a guard discovered late retracts
	// the taint of everything assigned from the now-bounded value
	// (`totalRounds = e.Round` after the cap check must come out clean).
	for i := 0; i < 8; i++ {
		ac.recomputeTaint()
		ac.changed = false
		ac.collectGuards()
		if !ac.changed {
			break
		}
	}
	ac.flag()
}

// recomputeTaint rebuilds the tainted-entity set to a fixpoint under the
// current clear intervals.
func (ac *allocCheck) recomputeTaint() {
	ac.tainted = make(map[string]bool)
	for {
		before := len(ac.tainted)
		ac.collectTaint()
		if len(ac.tainted) == before {
			return
		}
	}
}

func (ac *allocCheck) info() *types.Info { return ac.pass.Pkg.Info }

// entityKey returns the tracking key for an expression, or "" when the
// expression is not a trackable entity.
func (ac *allocCheck) entityKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := ac.info().Uses[e]
		if obj == nil {
			obj = ac.info().Defs[e]
		}
		if obj == nil {
			return ""
		}
		return fmt.Sprintf("obj:%p", obj)
	case *ast.SelectorExpr:
		if t := ac.info().TypeOf(e.X); t != nil && ac.ann.isWireStruct(t) {
			return "sel:" + renderExpr(e)
		}
	}
	return ""
}

// wireRoot reports whether the expression is a primary hostile value: a
// field read on a //vklint:wire struct, or a binary.ByteOrder integer
// decode.
func (ac *allocCheck) wireRoot(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if t := ac.info().TypeOf(e.X); t != nil && ac.ann.isWireStruct(t) {
			return true
		}
	case *ast.CallExpr:
		if fn, ok := calleeObject(ac.info(), e).(*types.Func); ok {
			if objectPkgPath(fn) == "encoding/binary" {
				switch fn.Name() {
				case "Uint16", "Uint32", "Uint64", "Varint", "Uvarint":
					return true
				}
			}
		}
	}
	return false
}

// hostileAt reports whether expr carries an unbounded wire value at pos:
// it is (or contains) a wire root or a tainted entity whose bound has not
// been established before pos. len/cap results are always safe — the
// codec itself caps what was ever allocated.
func (ac *allocCheck) hostileAt(expr ast.Expr, pos token.Pos) bool {
	hostile := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if hostile {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				return false
			}
			if ac.wireRoot(n) && !ac.clearedAt(ac.entityKey(n), pos) {
				hostile = true
				return false
			}
		case *ast.SelectorExpr:
			if ac.wireRoot(n) && !ac.clearedAt(ac.entityKey(n), pos) {
				hostile = true
			}
			return false // don't descend: e.Round's `e` is not itself an entity
		case *ast.Ident:
			key := ac.entityKey(n)
			if key != "" && ac.tainted[key] && !ac.clearedAt(key, pos) {
				hostile = true
			}
		}
		return true
	})
	return hostile
}

func (ac *allocCheck) clearedAt(key string, pos token.Pos) bool {
	if key == "" {
		return false
	}
	for _, r := range ac.cleared[key] {
		if pos >= r.from && pos < r.to {
			return true
		}
	}
	return false
}

// collectTaint spreads wire taint through assignments: `r := e.Round`
// makes r hostile wherever e.Round was still unchecked at the assignment.
func (ac *allocCheck) collectTaint() {
	ast.Inspect(ac.fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if !ac.hostileAt(as.Rhs[i], as.Pos()) {
				continue
			}
			key := ac.entityKey(lhs)
			if key != "" && !ac.tainted[key] {
				ac.tainted[key] = true
				ac.changed = true
			}
		}
		return true
	})
}

func (ac *allocCheck) collectGuards() {
	ast.Inspect(ac.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			for _, leaf := range orLeaves(n.Cond) {
				key, upper := ac.guardLeaf(leaf)
				if key == "" {
					continue
				}
				if upper && terminates(n.Body) {
					ac.addClear(key, posRange{n.End(), ac.fn.End()})
				} else if !upper {
					ac.addClear(key, posRange{n.Body.Pos(), n.Body.End()})
				}
			}
		case *ast.SwitchStmt:
			if n.Tag != nil {
				return true
			}
			for _, c := range n.Body.List {
				cc := c.(*ast.CaseClause)
				if !terminatesStmts(cc.Body) {
					continue
				}
				for _, cond := range cc.List {
					for _, leaf := range orLeaves(cond) {
						if key, upper := ac.guardLeaf(leaf); key != "" && upper {
							ac.addClear(key, posRange{n.End(), ac.fn.End()})
						}
					}
				}
			}
		}
		return true
	})
}

// guardLeaf inspects one comparison: it returns the guarded entity key
// and whether the comparison bounds that entity from above (the direction
// an exit guard needs; the opposite direction is an in-body bound).
func (ac *allocCheck) guardLeaf(e ast.Expr) (key string, upperBound bool) {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return "", false
	}
	keyOf := func(side ast.Expr) string {
		k := ac.entityKey(side)
		if k != "" && (ac.tainted[k] || ac.wireRoot(side)) {
			return k
		}
		return ""
	}
	switch be.Op {
	case token.GTR, token.GEQ: // x > Max (exit) | Max > x (in-body)
		if k := keyOf(be.X); k != "" {
			return k, true
		}
		if k := keyOf(be.Y); k != "" {
			return k, false
		}
	case token.LSS, token.LEQ: // x < Max (in-body) | Max < x (exit)
		if k := keyOf(be.X); k != "" {
			return k, false
		}
		if k := keyOf(be.Y); k != "" {
			return k, true
		}
	case token.NEQ, token.EQL:
		// Equality against a constant pins the value either way.
		if k := keyOf(be.X); k != "" {
			return k, be.Op == token.NEQ
		}
		if k := keyOf(be.Y); k != "" {
			return k, be.Op == token.NEQ
		}
	}
	return "", false
}

func (ac *allocCheck) addClear(key string, r posRange) {
	for _, have := range ac.cleared[key] {
		if have == r {
			return
		}
	}
	ac.cleared[key] = append(ac.cleared[key], r)
	ac.changed = true
}

func (ac *allocCheck) flag() {
	ast.Inspect(ac.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 1 {
				if _, isBuiltin := calleeObject(ac.info(), n).(*types.Builtin); !isBuiltin {
					return true
				}
				for _, arg := range n.Args[1:] {
					if ac.hostileAt(arg, n.Pos()) {
						ac.pass.Reportf(n.Pos(), "make sized by decoded wire input without a cap check; a hostile peer picks the allocation size")
						break
					}
				}
			}
		case *ast.ForStmt:
			if n.Cond == nil {
				return true
			}
			for _, leaf := range orLeaves(n.Cond) {
				be, ok := ast.Unparen(leaf).(*ast.BinaryExpr)
				if !ok {
					continue
				}
				if ac.hostileAt(be.X, n.Pos()) || ac.hostileAt(be.Y, n.Pos()) {
					ac.pass.Reportf(n.Pos(), "loop bound derives from decoded wire input without a cap check; a hostile peer picks the iteration count")
					break
				}
			}
		}
		return true
	})
}

// orLeaves splits an || chain into its comparison leaves.
func orLeaves(e ast.Expr) []ast.Expr {
	if be, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && be.Op == token.LOR {
		return append(orLeaves(be.X), orLeaves(be.Y)...)
	}
	return []ast.Expr{e}
}

// terminates reports whether a guard body unconditionally leaves the
// enclosing flow (return, continue, break, goto, or panic).
func terminates(body *ast.BlockStmt) bool {
	return terminatesStmts(body.List)
}

func terminatesStmts(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
