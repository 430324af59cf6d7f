package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// keyflowScope is the set of packages whose functions are taint-analyzed.
// The experiment/attack/NIST layers and the command binaries publish
// statistics and demo keys on purpose, so they are deliberately outside
// the flow contract.
var keyflowScope = []string{
	"protocol", "server", "transport", "pipeline", "core",
	"secure", "group", "amplify", "quantize", "reconcile",
}

func init() {
	register(&Analyzer{
		Name:     "keyflow",
		Doc:      "key material must not flow to the wire, logs, errors, or metrics unsanitized",
		Severity: Error,
		Run:      runKeyflow,
	})
}

// taintKind is the three-point lattice the flow analysis runs on.
// kindImage (a salted one-way image of a key block, secure.BlockImage)
// may key MACs but must never be published; kindRaw (actual key bits) may
// do neither.
type taintKind int

const (
	kindClean taintKind = iota
	kindImage
	kindRaw
)

func (k taintKind) String() string {
	switch k {
	case kindRaw:
		return "raw key material"
	case kindImage:
		return "one-way key image"
	}
	return "clean"
}

func maxKind(a, b taintKind) taintKind {
	if a > b {
		return a
	}
	return b
}

// policySpec is the curated flow contract of one callee the analysis does
// not (or must not) look inside.
type policySpec struct {
	// results fixes the taint kind of each result; missing entries are
	// clean. A source's key-bit results are kindRaw here.
	results []taintKind
	// macKey flags a call whose first argument must not be raw key bits
	// (secure.MAC/VerifyMAC: raw-keyed MACs are offline verification
	// oracles — the PR 5 bug class).
	macKey bool
	// image makes the result a one-way key image when any input is
	// tainted (secure.BlockImage).
	image bool
	// wipe kills the first argument's taint from the call position on
	// (secure.Wipe/WipeFloats).
	wipe bool
	// sink names a publication channel; any tainted argument is a
	// finding.
	sink string
	// clean marks a sanitizing package: results carry no taint.
	clean bool
}

// keyflowPolicy resolves the flow contract for a callee identified by its
// package's base name and its own name. Policy is consulted before module
// summaries so the sanctioned stage contracts (e.g. BobEncode's
// bounded-leakage syndrome output) override whatever the implementation
// bodies would propagate.
func keyflowPolicy(pkgBase, name string) (policySpec, bool) {
	switch pkgBase {
	case "pipeline", "core", "quantize", "reconcile", "amplify":
		switch name {
		// Quantizer outputs: result 0 is the key-bit stream; kept-index
		// results are public wire data by design.
		case "Quantize", "BobQuantize", "QuantizePredicted",
			"MultiBit", "MeanThreshold", "Select", "SelectAt", "AliceSelect",
			"Amplify", "Cascade", "CSISTA", "Reconcile",
			"CascadeSyndromeCorrect", "CSISTACorrect", "AlicePrecompute":
			return policySpec{results: []taintKind{kindRaw}}, true
		case "IntersectKept":
			return policySpec{results: []taintKind{kindRaw, kindRaw}}, true
		// The wire-facing reconciler contract: the code vector is the
		// sanctioned bounded-leakage publication, the key image is a
		// one-way image.
		case "BobEncode":
			return policySpec{results: []taintKind{kindClean, kindImage}}, true
		case "AliceCorrect":
			return policySpec{results: []taintKind{kindRaw, kindImage}}, true
		case "CascadeSyndromeEncode", "CSEncode", "CascadeSyndromeBits":
			return policySpec{clean: true}, true
		// Aggregate agreement statistics are declassified by contract.
		case "Agreement":
			return policySpec{clean: true}, true
		}
		return policySpec{}, false
	case "secure":
		switch name {
		case "MAC", "VerifyMAC":
			return policySpec{macKey: true, clean: true}, true
		case "BlockImage":
			return policySpec{image: true}, true
		case "Wipe", "WipeFloats":
			return policySpec{wipe: true}, true
		}
		return policySpec{}, false
	case "gob":
		if name == "Encode" || name == "EncodeValue" {
			return policySpec{sink: "a gob/wire encoder"}, true
		}
		return policySpec{clean: true}, true
	case "transport":
		return policySpec{sink: "a transport send"}, true
	case "net":
		switch name {
		case "Write", "WriteTo", "WriteToUDP", "WriteMsgUDP":
			return policySpec{sink: "a socket write"}, true
		}
		return policySpec{clean: true}, true
	case "fmt", "log":
		return policySpec{sink: "log/format output"}, true
	case "errors":
		if name == "New" {
			return policySpec{sink: "error construction"}, true
		}
		return policySpec{clean: true}, true
	case "obs":
		return policySpec{sink: "an obs metric or label"}, true
	// Cryptographic digests and constant-time primitives declassify;
	// the listed support packages never carry key bits outward.
	case "sha256", "sha512", "hmac", "subtle", "aes", "cipher", "rand",
		"binary", "crc32", "hex", "base64", "bits", "math", "sort",
		"strconv", "time", "sync", "atomic", "utf8", "slices", "maps":
		return policySpec{clean: true}, true
	}
	return policySpec{}, false
}

// taintReport is one finding, anchored inside the analyzed function.
type taintReport struct {
	anchor token.Pos
	msg    string
}

// funcInfo is one module function the analysis can look inside.
type funcInfo struct {
	pkg     *Package
	decl    *ast.FuncDecl
	obj     *types.Func
	params  []types.Object // receiver first when present; nil for unnamed
	results int
}

// funcSummary is the memoized effect of one function under one input
// taint assignment: the taint kinds of its results and the findings its
// body produces under those inputs.
type funcSummary struct {
	results []taintKind
	reports []taintReport
}

// keyflow is the per-pass interprocedural engine state.
type keyflow struct {
	pass       *Pass
	ann        *annotations
	funcs      map[types.Object]*funcInfo
	memo       map[summaryKey]*funcSummary
	inProgress map[summaryKey]bool
	reported   map[string]bool
}

type summaryKey struct {
	fn    types.Object
	kinds string
}

func kindsKey(kinds []taintKind) string {
	b := make([]byte, len(kinds))
	for i, k := range kinds {
		b[i] = byte('0' + k)
	}
	return string(b)
}

func runKeyflow(pass *Pass) {
	if !pass.InScope(keyflowScope...) {
		return
	}
	kf := &keyflow{
		pass:       pass,
		ann:        collectAnnotations(pass.Pkgs),
		funcs:      indexFuncs(pass.Pkgs),
		memo:       make(map[summaryKey]*funcSummary),
		inProgress: make(map[summaryKey]bool),
		reported:   make(map[string]bool),
	}
	for _, f := range pass.Pkg.Files {
		if isGenerated(f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pass.Pkg.Info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := kf.funcs[obj]
			if fi == nil {
				continue
			}
			sum := kf.summarize(fi, make([]taintKind, len(fi.params)))
			for _, r := range sum.reports {
				kf.emit(r)
			}
		}
	}
}

func (kf *keyflow) emit(r taintReport) {
	key := fmt.Sprintf("%d:%s", r.anchor, r.msg)
	if kf.reported[key] {
		return
	}
	kf.reported[key] = true
	kf.pass.Reportf(r.anchor, "%s", r.msg)
}

// indexFuncs maps every function and method object in the loaded universe
// to its declaration, so calls can be summarized across packages.
func indexFuncs(pkgs []*Package) map[types.Object]*funcInfo {
	out := make(map[types.Object]*funcInfo)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &funcInfo{pkg: pkg, decl: fn, obj: obj}
				if fn.Recv != nil {
					fi.params = append(fi.params, fieldObjects(pkg, fn.Recv)...)
				}
				fi.params = append(fi.params, fieldObjects(pkg, fn.Type.Params)...)
				if sig, ok := obj.Type().(*types.Signature); ok {
					fi.results = sig.Results().Len()
				}
				out[obj] = fi
			}
		}
	}
	return out
}

// fieldObjects flattens a parameter list into per-value objects, with nil
// placeholders for unnamed parameters.
func fieldObjects(pkg *Package, fields *ast.FieldList) []types.Object {
	if fields == nil {
		return nil
	}
	var out []types.Object
	for _, field := range fields.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			out = append(out, pkg.Info.Defs[name])
		}
	}
	return out
}

// summarize computes (and memoizes) a function's summary under the given
// parameter taint kinds. Recursive cycles resolve to a clean summary —
// a bounded under-approximation documented in the package doc.
func (kf *keyflow) summarize(fi *funcInfo, kinds []taintKind) *funcSummary {
	key := summaryKey{fi.obj, kindsKey(kinds)}
	if s, ok := kf.memo[key]; ok {
		return s
	}
	if kf.inProgress[key] {
		return &funcSummary{results: make([]taintKind, fi.results)}
	}
	kf.inProgress[key] = true
	defer delete(kf.inProgress, key)

	fa := &fnAnalysis{
		kf:      kf,
		fi:      fi,
		state:   make(map[types.Object]taintKind),
		wiped:   make(map[types.Object]token.Pos),
		results: make([]taintKind, fi.results),
		seen:    make(map[string]bool),
	}
	for i, obj := range fi.params {
		if obj == nil {
			continue
		}
		k := kindClean
		if i < len(kinds) {
			k = kinds[i]
		}
		if kf.ann.secret[obj] {
			k = kindRaw
		}
		fa.state[obj] = k
	}
	for iter := 0; iter < 12; iter++ {
		fa.changed = false
		fa.walkStmt(fi.decl.Body)
		if !fa.changed {
			break
		}
	}
	fa.reporting = true
	fa.walkStmt(fi.decl.Body)
	// Named results accumulate through assignments as well as returns.
	resultObjs := fieldObjects(fi.pkg, fi.decl.Type.Results)
	for i, obj := range resultObjs {
		if obj != nil && i < len(fa.results) {
			fa.results[i] = maxKind(fa.results[i], fa.state[obj])
		}
	}
	sum := &funcSummary{results: fa.results, reports: fa.reports}
	kf.memo[key] = sum
	return sum
}

// fnAnalysis is one flow-insensitive fixpoint over one function body.
type fnAnalysis struct {
	kf      *keyflow
	fi      *funcInfo
	state   map[types.Object]taintKind
	wiped   map[types.Object]token.Pos // position-gated secure.Wipe kills
	results []taintKind
	reports []taintReport
	seen    map[string]bool

	reporting bool
	changed   bool
	inDefer   bool // inside defer/go/func literal: wipes must not kill
}

func (fa *fnAnalysis) info() *types.Info { return fa.fi.pkg.Info }

func (fa *fnAnalysis) join(obj types.Object, k taintKind) {
	if obj == nil || k == kindClean {
		return
	}
	if fa.state[obj] < k {
		fa.state[obj] = k
		fa.changed = true
	}
}

// kindAt reads an object's taint at a use position, honoring wipes that
// precede the use in source order.
func (fa *fnAnalysis) kindAt(obj types.Object, pos token.Pos) taintKind {
	if obj == nil {
		return kindClean
	}
	if w, ok := fa.wiped[obj]; ok && pos > w {
		return kindClean
	}
	return fa.state[obj]
}

func (fa *fnAnalysis) report(pos token.Pos, msg string) {
	if !fa.reporting {
		return
	}
	key := fmt.Sprintf("%d:%s", pos, msg)
	if fa.seen[key] {
		return
	}
	fa.seen[key] = true
	fa.reports = append(fa.reports, taintReport{anchor: pos, msg: msg})
}

// rootObject resolves the variable an assignable expression stores into:
// x, x[i], x.f, *x, x[i:j] all root at x.
func (fa *fnAnalysis) rootObject(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := fa.info().Uses[e]; obj != nil {
			return obj
		}
		return fa.info().Defs[e]
	case *ast.SelectorExpr:
		return fa.rootObject(e.X)
	case *ast.IndexExpr:
		return fa.rootObject(e.X)
	case *ast.SliceExpr:
		return fa.rootObject(e.X)
	case *ast.StarExpr:
		return fa.rootObject(e.X)
	case *ast.UnaryExpr:
		return fa.rootObject(e.X)
	}
	return nil
}

func (fa *fnAnalysis) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			fa.walkStmt(st)
		}
	case *ast.AssignStmt:
		fa.assign(s)
	case *ast.ExprStmt:
		fa.eval(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					obj := fa.info().Defs[name]
					if i < len(vs.Values) {
						fa.join(obj, fa.eval(vs.Values[i]))
					} else if len(vs.Values) == 1 {
						ks := fa.evalMulti(vs.Values[0])
						if i < len(ks) {
							fa.join(obj, ks[i])
						}
					}
				}
			}
		}
	case *ast.IfStmt:
		fa.walkStmt(s.Init)
		fa.eval(s.Cond)
		fa.walkStmt(s.Body)
		fa.walkStmt(s.Else)
	case *ast.ForStmt:
		fa.walkStmt(s.Init)
		if s.Cond != nil {
			fa.eval(s.Cond)
		}
		fa.walkStmt(s.Post)
		fa.walkStmt(s.Body)
	case *ast.RangeStmt:
		k := fa.eval(s.X)
		// The element carries the data: for channels that is the Key
		// binding, for maps/slices/strings the Value. Map/slice keys are
		// positional metadata (round and window indices here) and stay
		// clean — a map keyed by secrets would be missed, a documented
		// under-approximation.
		isChan := false
		if t := fa.info().TypeOf(s.X); t != nil {
			_, isChan = t.Underlying().(*types.Chan)
		}
		if isChan {
			fa.join(fa.rootObject(s.Key), k)
		} else {
			fa.join(fa.rootObject(s.Value), k)
		}
		fa.walkStmt(s.Body)
	case *ast.SwitchStmt:
		fa.walkStmt(s.Init)
		if s.Tag != nil {
			fa.eval(s.Tag)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				fa.eval(e)
			}
			for _, st := range cc.Body {
				fa.walkStmt(st)
			}
		}
	case *ast.TypeSwitchStmt:
		fa.walkStmt(s.Init)
		fa.walkStmt(s.Assign)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, st := range cc.Body {
				fa.walkStmt(st)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			fa.walkStmt(cc.Comm)
			for _, st := range cc.Body {
				fa.walkStmt(st)
			}
		}
	case *ast.ReturnStmt:
		if len(s.Results) == 1 && fa.fi.results > 1 {
			for i, k := range fa.evalMulti(s.Results[0]) {
				if i < len(fa.results) {
					fa.results[i] = maxKind(fa.results[i], k)
				}
			}
			return
		}
		for i, e := range s.Results {
			if i < len(fa.results) {
				fa.results[i] = maxKind(fa.results[i], fa.eval(e))
			}
		}
	case *ast.DeferStmt:
		fa.inFuncValue(func() { fa.call(s.Call) })
	case *ast.GoStmt:
		fa.inFuncValue(func() { fa.call(s.Call) })
	case *ast.SendStmt:
		fa.join(fa.rootObject(s.Chan), fa.eval(s.Value))
	case *ast.LabeledStmt:
		fa.walkStmt(s.Stmt)
	}
}

// inFuncValue runs fn with wipe recording disabled: code inside defers,
// go statements, and function literals runs at an unknown time, so a
// secure.Wipe there cannot be used as a position-gated kill (the PR 5
// raw-MAC flow sits between a deferred wipe's declaration and its run).
func (fa *fnAnalysis) inFuncValue(fn func()) {
	saved := fa.inDefer
	fa.inDefer = true
	fn()
	fa.inDefer = saved
}

func (fa *fnAnalysis) assign(s *ast.AssignStmt) {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		// Compound ops (+=, ^=, |=, ...): the updated variable absorbs
		// the operand's taint (parity accumulation is exactly this).
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			fa.join(fa.rootObject(s.Lhs[0]), fa.eval(s.Rhs[0]))
		}
		return
	}
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		ks := fa.evalMulti(s.Rhs[0])
		for i, lhs := range s.Lhs {
			if i < len(ks) {
				fa.join(fa.rootObject(lhs), ks[i])
			}
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i < len(s.Rhs) {
			fa.join(fa.rootObject(lhs), fa.eval(s.Rhs[i]))
		}
	}
}

// evalMulti evaluates an expression in a multi-value context.
func (fa *fnAnalysis) evalMulti(e ast.Expr) []taintKind {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		return fa.call(call)
	}
	return []taintKind{fa.eval(e)}
}

// eval computes the taint kind of a single-valued expression, walking any
// calls and function literals inside it.
func (fa *fnAnalysis) eval(e ast.Expr) taintKind {
	switch e := e.(type) {
	case nil:
		return kindClean
	case *ast.Ident:
		obj := fa.info().Uses[e]
		if obj == nil {
			obj = fa.info().Defs[e]
		}
		if v, ok := obj.(*types.Var); ok && fa.kf.ann.secret[v] {
			return kindRaw
		}
		return fa.kindAt(obj, e.Pos())
	case *ast.SelectorExpr:
		sel := fa.info().Uses[e.Sel]
		if fa.kf.ann.secret[sel] {
			return kindRaw
		}
		if _, isFunc := sel.(*types.Func); isFunc {
			return kindClean // method value / qualified function name
		}
		k := fa.eval(e.X)
		return maxKind(k, fa.kindAt(sel, e.Sel.Pos()))
	case *ast.IndexExpr:
		return fa.eval(e.X)
	case *ast.SliceExpr:
		return fa.eval(e.X)
	case *ast.StarExpr:
		return fa.eval(e.X)
	case *ast.UnaryExpr:
		return fa.eval(e.X)
	case *ast.ParenExpr:
		return fa.eval(e.X)
	case *ast.TypeAssertExpr:
		return fa.eval(e.X)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			// Comparisons yield booleans; implicit flows are out of scope.
			fa.eval(e.X)
			fa.eval(e.Y)
			return kindClean
		}
		return maxKind(fa.eval(e.X), fa.eval(e.Y))
	case *ast.CompositeLit:
		k := kindClean
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			k = maxKind(k, fa.eval(el))
		}
		return k
	case *ast.CallExpr:
		k := kindClean
		for _, rk := range fa.call(e) {
			k = maxKind(k, rk)
		}
		return k
	case *ast.FuncLit:
		fa.inFuncValue(func() { fa.walkStmt(e.Body) })
		return kindClean
	}
	return kindClean
}

// call resolves one call expression: builtins, conversions, the curated
// policy table, module-function summaries, and a conservative default for
// everything else. It returns the taint kinds of the call's results.
func (fa *fnAnalysis) call(call *ast.CallExpr) []taintKind {
	info := fa.info()
	// Conversions propagate: string(keyBits) or float64(parity) is still
	// the secret.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		k := kindClean
		for _, a := range call.Args {
			k = maxKind(k, fa.eval(a))
		}
		return []taintKind{k}
	}
	obj := calleeObject(info, call)
	if b, ok := obj.(*types.Builtin); ok {
		return fa.builtinCall(b.Name(), call)
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		// Calls through function values and literals: propagate the
		// argument join to every result.
		k := kindClean
		for _, a := range call.Args {
			k = maxKind(k, fa.eval(a))
		}
		if sig, ok := info.Types[call.Fun].Type.Underlying().(*types.Signature); ok {
			return defaultResults(sig, k)
		}
		return []taintKind{k}
	}

	pkgBase := lastSegment(objectPkgPath(fn))
	name := fn.Name()
	if spec, ok := keyflowPolicy(pkgBase, name); ok {
		return fa.policyCall(spec, pkgBase, name, call)
	}
	if fi := fa.kf.funcs[fn]; fi != nil {
		return fa.summaryCall(fi, call)
	}
	return fa.defaultCall(fn, call)
}

func (fa *fnAnalysis) builtinCall(name string, call *ast.CallExpr) []taintKind {
	switch name {
	case "append":
		k := kindClean
		for _, a := range call.Args {
			k = maxKind(k, fa.eval(a))
		}
		if len(call.Args) > 0 {
			fa.join(fa.rootObject(call.Args[0]), k)
		}
		return []taintKind{k}
	case "copy":
		if len(call.Args) == 2 {
			fa.join(fa.rootObject(call.Args[0]), fa.eval(call.Args[1]))
		}
		return []taintKind{kindClean}
	case "len", "cap", "make", "new", "min", "max", "delete", "clear":
		for _, a := range call.Args {
			fa.eval(a)
		}
		if name == "min" || name == "max" {
			k := kindClean
			for _, a := range call.Args {
				k = maxKind(k, fa.eval(a))
			}
			return []taintKind{k}
		}
		return []taintKind{kindClean}
	}
	for _, a := range call.Args {
		fa.eval(a)
	}
	return []taintKind{kindClean}
}

func (fa *fnAnalysis) policyCall(spec policySpec, pkgBase, name string, call *ast.CallExpr) []taintKind {
	argKinds := make([]taintKind, len(call.Args))
	worst := kindClean
	for i, a := range call.Args {
		argKinds[i] = fa.eval(a)
		worst = maxKind(worst, argKinds[i])
	}
	switch {
	case spec.wipe:
		if !fa.inDefer && len(call.Args) > 0 {
			if obj := fa.rootObject(call.Args[0]); obj != nil {
				if _, done := fa.wiped[obj]; !done {
					fa.wiped[obj] = call.Pos()
					fa.changed = true
				}
			}
		}
		return nil
	case spec.macKey:
		if len(argKinds) > 0 && argKinds[0] == kindRaw {
			fa.report(call.Pos(), fmt.Sprintf(
				"MAC keyed with raw key bits (%s.%s) — an offline verification oracle; key it with a secure.BlockImage key image instead", pkgBase, name))
		}
		return make([]taintKind, resultCount(fa.info(), call))
	case spec.sink != "":
		for i, k := range argKinds {
			if k >= kindImage {
				fa.report(call.Pos(), fmt.Sprintf(
					"%s reaches %s (argument %d of %s.%s); sanitize with secure.BlockImage/sha256 or remove the flow", k, spec.sink, i+1, pkgBase, name))
			}
		}
		return make([]taintKind, resultCount(fa.info(), call))
	case spec.image:
		out := make([]taintKind, resultCount(fa.info(), call))
		if worst > kindClean && len(out) > 0 {
			out[0] = kindImage
		}
		return out
	case spec.clean:
		return make([]taintKind, resultCount(fa.info(), call))
	}
	n := resultCount(fa.info(), call)
	out := make([]taintKind, n)
	for i := 0; i < n && i < len(spec.results); i++ {
		out[i] = spec.results[i]
	}
	return out
}

// summaryCall applies a module function's summary at the call site and
// lifts the findings its body produces under these argument kinds —
// minus the findings it produces on its own (those are reported once, in
// the callee's own package pass).
func (fa *fnAnalysis) summaryCall(fi *funcInfo, call *ast.CallExpr) []taintKind {
	kinds := make([]taintKind, len(fi.params))
	idx := 0
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fa.info().Selections[sel] != nil {
		if len(kinds) > 0 {
			kinds[0] = fa.eval(sel.X)
			idx = 1
		}
	}
	for _, a := range call.Args {
		k := fa.eval(a)
		switch {
		case idx < len(kinds):
			kinds[idx] = k
			idx++
		case len(kinds) > 0: // variadic overflow joins into the last param
			kinds[len(kinds)-1] = maxKind(kinds[len(kinds)-1], k)
		}
	}
	sum := fa.kf.summarize(fi, kinds)
	if fa.reporting {
		internal := make(map[string]bool)
		for _, r := range fa.kf.summarize(fi, make([]taintKind, len(fi.params))).reports {
			internal[fmt.Sprintf("%d:%s", r.anchor, r.msg)] = true
		}
		for _, r := range sum.reports {
			if internal[fmt.Sprintf("%d:%s", r.anchor, r.msg)] {
				continue
			}
			pos := fa.kf.pass.Fset.Position(r.anchor)
			fa.report(call.Pos(), fmt.Sprintf("%s [via %s at %s:%d]",
				r.msg, fi.obj.Name(), filepath.Base(pos.Filename), pos.Line))
		}
	}
	out := make([]taintKind, resultCount(fa.info(), call))
	for i := 0; i < len(out) && i < len(sum.results); i++ {
		out[i] = sum.results[i]
	}
	return out
}

// defaultCall handles externals without policy or body: scalar results
// are clean (aggregate statistics), everything else propagates the join
// of the receiver and arguments, and a tainted argument taints a mutable
// receiver (bytes.Buffer.Write and friends).
func (fa *fnAnalysis) defaultCall(fn *types.Func, call *ast.CallExpr) []taintKind {
	k := kindClean
	for _, a := range call.Args {
		k = maxKind(k, fa.eval(a))
	}
	var recvRoot types.Object
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fa.info().Selections[sel] != nil {
		k = maxKind(k, fa.eval(sel.X))
		recvRoot = fa.rootObject(sel.X)
	}
	if k > kindClean && recvRoot != nil {
		fa.join(recvRoot, k)
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return []taintKind{k}
	}
	return defaultResults(sig, k)
}

func defaultResults(sig *types.Signature, k taintKind) []taintKind {
	out := make([]taintKind, sig.Results().Len())
	for i := range out {
		t := sig.Results().At(i).Type()
		if k == kindClean || isScalarType(t) || isErrorType(t) {
			out[i] = kindClean
		} else {
			out[i] = k
		}
	}
	return out
}

// isScalarType reports whether t is a single machine word that cannot
// meaningfully carry a key (numbers, booleans). Strings are NOT scalar:
// string(keyBits) is still the key.
func isScalarType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsNumeric|types.IsBoolean) != 0
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func resultCount(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return 1
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		return tuple.Len()
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.Invalid {
		return 0
	}
	return 1
}

func lastSegment(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
