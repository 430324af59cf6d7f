package lint

import (
	"go/ast"
	"go/types"
)

// obsnopScope is the set of hot-path packages that record metrics on
// every message or pipeline phase. These packages must accept an
// obs.Recorder from their caller (defaulting to obs.Nop) and never
// construct a concrete Registry themselves: a privately constructed
// recorder hides its metrics from the binary's exporter, and an
// accidental always-on registry would put registry map lookups and
// atomics on paths that are supposed to cost nothing by default. For
// the same reason they never format an argument they pass to a
// recorder: under obs.Nop the call records nothing, but the formatting
// has already run and allocated.
var obsnopScope = []string{"protocol", "core", "transport", "exp", "server", "lora", "group"}

func init() {
	register(&Analyzer{
		Name:     "obsnop",
		Doc:      "hot-path packages must accept an obs.Recorder, never construct a concrete Registry, and never format a recorder argument",
		Severity: Error,
		Run:      runObsnop,
	})
}

func runObsnop(pass *Pass) {
	if !pass.InScope(obsnopScope...) {
		return
	}
	obsPath := pass.Module.Path + "/internal/obs"
	recorder := obsRecorder(pass.Pkg.Types, obsPath)
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if isGenerated(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				obj := calleeObject(info, n)
				if obj != nil && obj.Name() == "NewRegistry" && objectPkgPath(obj) == obsPath {
					pass.Reportf(n.Pos(),
						"package %s constructs obs.NewRegistry; hot-path code must take an obs.Recorder from the caller (default obs.Nop)",
						pass.Pkg.Name)
				}
				if method := recorderMethod(obj, recorder); method != "" {
					for _, arg := range n.Args {
						reportFormatting(pass, arg, method)
					}
				}
			case *ast.CompositeLit:
				tv, ok := info.Types[ast.Expr(n)]
				if ok && isObsRegistry(tv.Type, obsPath) {
					pass.Reportf(n.Pos(),
						"package %s builds an obs.Registry literal; hot-path code must take an obs.Recorder from the caller (default obs.Nop)",
						pass.Pkg.Name)
				}
			}
			return true
		})
	}
}

// isObsRegistry reports whether t is the concrete obs.Registry type.
func isObsRegistry(t types.Type, obsPath string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && objectPkgPath(obj) == obsPath
}

// obsRecorder returns the obs.Recorder interface if pkg imports the obs
// package, and nil otherwise (a package that cannot name the interface
// has no recorder calls to check).
func obsRecorder(pkg *types.Package, obsPath string) *types.Interface {
	for _, imp := range pkg.Imports() {
		if imp.Path() != obsPath {
			continue
		}
		if tn, ok := imp.Scope().Lookup("Recorder").(*types.TypeName); ok {
			iface, _ := tn.Type().Underlying().(*types.Interface)
			return iface
		}
	}
	return nil
}

// recorderMethod returns the method's name if obj is one of the
// Recorder methods called on a value whose type implements Recorder
// (the interface itself, obs.Registry, or any other implementation),
// and "" otherwise.
func recorderMethod(obj types.Object, recorder *types.Interface) string {
	fn, ok := obj.(*types.Func)
	if !ok || recorder == nil {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	for i := 0; i < recorder.NumMethods(); i++ {
		if recorder.Method(i).Name() == fn.Name() && types.Implements(recv.Type(), recorder) {
			return fn.Name()
		}
	}
	return ""
}

// reportFormatting flags every call into fmt, and every String()
// method call, inside one argument of a recorder call.
func reportFormatting(pass *Pass, arg ast.Expr, method string) {
	ast.Inspect(arg, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var what string
		switch obj := calleeObject(pass.Pkg.Info, call); {
		case objectPkgPath(obj) == "fmt":
			what = "fmt." + obj.Name()
		case isStringMethod(obj):
			what = "String()"
		default:
			return true
		}
		pass.Reportf(call.Pos(),
			"package %s calls %s to build an argument of Recorder.%s; the formatting runs even under obs.Nop (bake the name once, at package level)",
			pass.Pkg.Name, what, method)
		return true
	})
}

// isStringMethod reports whether obj is a String() method.
func isStringMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != "String" {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Recv() != nil && sig.Params().Len() == 0
}
