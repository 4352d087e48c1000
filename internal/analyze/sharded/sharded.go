// Package sharded statically enforces the engine's sharding contract:
// byte-identical results at any worker count require that parallel
// sections touch only per-worker or per-shard state, and that the
// serial-only RNG streams never cross into them.
//
// Three annotations carry the contract:
//
//	//fdlint:workerpool  on the one function allowed to create
//	                     goroutines (the persistent pool constructor).
//	                     In internal/netsim, any `go` statement
//	                     elsewhere is a diagnostic: ad-hoc goroutines
//	                     bypass the pool's deterministic shard dispatch.
//	//fdlint:parallel    on functions that execute on pool workers.
//	                     Inside them the analyzer forbids channel
//	                     operations and select (workers must be pure
//	                     compute between dispatch barriers), and
//	                     requires every *simrand.Source expression to be
//	                     rooted at a non-receiver parameter — receiver
//	                     fields are engine-shared state, parameters are
//	                     the per-worker scratch. Local aliases of
//	                     parameter-rooted sources (seedSrc := w.lossSrc)
//	                     are tracked through their definitions.
//	//fdlint:serial      trailing a declaration whose value is a
//	                     serial-only stream (the placement/traffic/
//	                     slot/mobility splits). Within the declaring
//	                     function the value must not be stored into a
//	                     struct field or passed to a //fdlint:parallel
//	                     function — either would let worker scheduling
//	                     perturb the draw sequence.
//
// Write isolation closes the gap between "no channels in parallel
// sections" and "no data races": inside a //fdlint:parallel function
// that takes an integer range grant, writes that reach engine-shared
// storage (the receiver's struct-of-arrays columns, package variables,
// or aliases of them) must land at indices derived from the shard's
// own parameters — the range [lo, hi), the cell index, the tag id the
// dispatcher granted. Cross-index writes (a literal slot, a
// field-loaded cursor, another shard's variable) and whole-column
// writes (slice replace, copy/clear/append over a shared column) are
// flagged.
//
// Derivation is the index-provenance lattice over the dataflow
// def-use chains: parameters are derived roots; arithmetic, slicing,
// conversions, and calls propagate derivation from their operands;
// indexing with a derived index narrows shared storage to a
// shard-owned element (so `acc := &e.cellAcc[ci]` makes *acc and
// acc.field writes shard-owned). The escape hatch is
// //fdlint:shard-ok REASON on the offending line, for writes whose
// ownership argument lives outside the function.
//
// Only the go-statement rule is scoped to internal/netsim; every other
// rule applies wherever its annotation appears.
package sharded

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analyze/analysis"
	"repro/internal/analyze/annotate"
	"repro/internal/analyze/dataflow"
)

// Analyzer is the sharded analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "sharded",
	Doc: "parallel sections: goroutines only in the netsim worker " +
		"pool, parallel functions touch only parameter-rooted RNG " +
		"sources and write shared columns only at shard-derived " +
		"indices, serial-only streams stay serial",
	Run: run,
}

// Governs reports whether the go-statement rule applies to the
// package path.
func Governs(path string) bool {
	const sfx = "internal/netsim"
	return path == sfx || strings.HasSuffix(path, "/"+sfx)
}

// The index-provenance lattice: an expression either is or is not
// provably derived from the shard's parameters.
const derived dataflow.Value = 1

func run(pass *analysis.Pass) (interface{}, error) {
	// First pass: find the //fdlint:parallel function objects so calls
	// to them can be recognized across the package.
	parallelFuncs := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, ok := annotate.FuncHas(pass.Fset, fd, "parallel"); ok {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					parallelFuncs[obj] = true
				}
			}
		}
	}

	noGo := Governs(pass.Pkg.Path())
	for _, f := range pass.Files {
		af := annotate.NewFile(pass.Fset, f)
		for _, d := range af.All() {
			if d.Verb == "shard-ok" && d.Reason == "" {
				pass.Reportf(d.Pos, "//fdlint:shard-ok suppression requires a reason")
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, isPool := annotate.FuncHas(pass.Fset, fd, "workerpool"); noGo && !isPool {
				checkNoGo(pass, fd)
			}
			if parallelFuncs[pass.TypesInfo.Defs[fd.Name]] {
				ck := &checker{pass: pass, af: af, fd: fd, chains: dataflow.New(pass.TypesInfo, fd)}
				ck.eval = dataflow.NewEvaluator(ck.chains, ck.transfer)
				ck.check(fd.Body, ck.hasIntParam())
			}
			checkSerial(pass, af, fd, parallelFuncs)
		}
	}
	return nil, nil
}

// checkNoGo flags goroutine creation outside the worker pool.
func checkNoGo(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			pass.Reportf(g.Pos(), "go statement outside the //fdlint:workerpool function: ad-hoc goroutines bypass deterministic shard dispatch")
		}
		return true
	})
}

// checker holds one //fdlint:parallel body and its def-use chains.
type checker struct {
	pass   *analysis.Pass
	af     *annotate.File
	fd     *ast.FuncDecl
	chains *dataflow.Chains
	eval   *dataflow.Evaluator
}

// hasIntParam reports whether the function takes at least one
// integer-typed parameter — the shard's range grant. Per-worker prep
// with no grant has no shard parameter to derive indices from, so its
// write-isolation argument lives with the caller.
func (ck *checker) hasIntParam() bool {
	for _, p := range ck.chains.Params() {
		if dataflow.IsIntegral(p.Type()) {
			return true
		}
	}
	return false
}

// check enforces the worker-purity rules over body and, when writes is
// set, the write-isolation rules. Closure bodies get the purity rules
// only: their writes are outside the index lattice's scope.
func (ck *checker) check(body ast.Node, writes bool) {
	name := ck.fd.Name.Name
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			ck.check(v.Body, false)
			return false
		case *ast.SelectStmt:
			ck.pass.Reportf(v.Pos(), "//fdlint:parallel function %s uses select: workers must be pure compute between dispatch barriers", name)
			return false
		case *ast.SendStmt:
			ck.pass.Reportf(v.Pos(), "//fdlint:parallel function %s sends on a channel: workers must be pure compute between dispatch barriers", name)
			return false
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				ck.pass.Reportf(v.Pos(), "//fdlint:parallel function %s receives from a channel: workers must be pure compute between dispatch barriers", name)
			}
		case *ast.Ident, *ast.SelectorExpr:
			expr := n.(ast.Expr)
			if !dataflow.IsSourceType(ck.pass.TypesInfo.Types[expr].Type) {
				return true
			}
			if !ck.rooted(expr, map[types.Object]bool{}) {
				ck.pass.Reportf(expr.Pos(), "//fdlint:parallel function %s uses a *simrand.Source not rooted at a parameter: engine-shared sources make results depend on worker interleaving", name)
			}
			if _, ok := n.(*ast.SelectorExpr); ok {
				return false
			}
		case *ast.AssignStmt:
			if writes {
				for _, lhs := range v.Lhs {
					ck.checkLvalue(lhs)
				}
			}
		case *ast.IncDecStmt:
			if writes {
				ck.checkLvalue(v.X)
			}
		case *ast.CallExpr:
			if writes {
				ck.checkBulkCall(v)
			}
		}
		return true
	})
}

// rooted reports whether expr's base identifier is a non-receiver
// parameter, or a local every definition of which is itself rooted.
// A cycle back to an identifier under evaluation adds no evidence
// either way.
func (ck *checker) rooted(expr ast.Expr, visited map[types.Object]bool) bool {
	id := dataflow.RootIdent(expr)
	if id == nil {
		return false
	}
	obj := dataflow.ObjectOf(ck.pass.TypesInfo, id)
	if obj == nil {
		return false
	}
	if visited[obj] || ck.chains.IsParam(obj) {
		return true
	}
	visited[obj] = true
	ok := false
	for _, d := range ck.chains.Defs(obj) {
		if d.X == nil {
			continue
		}
		if !ck.rooted(d.X, visited) {
			return false
		}
		ok = true
	}
	return ok
}

// checkLvalue enforces the write rules on one assignment target:
// every index step over shared storage must be derived, and a target
// with no index step must not be shared storage at all.
func (ck *checker) checkLvalue(lv ast.Expr) {
	if !dataflow.HasIndexStep(lv) {
		if id, ok := ast.Unparen(lv).(*ast.Ident); ok {
			// Plain local/param rebinding (x := ..., x = append(x, ...)).
			if obj := dataflow.ObjectOf(ck.pass.TypesInfo, id); obj != nil && !ck.isReceiver(obj) {
				return
			}
		}
		if ck.shared(lv, map[types.Object]bool{}) && !ck.suppressed(lv) {
			ck.pass.Reportf(lv.Pos(),
				"parallel shard writes engine-shared state without an element index: whole-column and shared-field writes race across shards (//fdlint:shard-ok REASON if ownership is external)")
		}
		return
	}
	ck.checkIndexSteps(lv)
}

// checkIndexSteps walks the access path and flags every index over
// shared storage that is not derived from the shard parameters.
func (ck *checker) checkIndexSteps(e ast.Expr) {
	switch v := ast.Unparen(e).(type) {
	case *ast.IndexExpr:
		if ck.shared(v.X, map[types.Object]bool{}) && ck.eval.Eval(v.Index) != derived && !ck.suppressed(v) {
			ck.pass.Reportf(v.Index.Pos(),
				"parallel shard writes a shared column at an index not derived from the shard's own parameters: cross-index writes race across shards (//fdlint:shard-ok REASON if the partition is external)")
		}
		ck.checkIndexSteps(v.X)
	case *ast.SelectorExpr:
		ck.checkIndexSteps(v.X)
	case *ast.StarExpr:
		ck.checkIndexSteps(v.X)
	}
}

// checkBulkCall flags copy/clear/append whose destination is shared
// storage not narrowed to a shard-owned range.
func (ck *checker) checkBulkCall(call *ast.CallExpr) {
	name := dataflow.BuiltinName(ck.pass.TypesInfo, call)
	switch name {
	case "copy", "clear", "append":
	default:
		return
	}
	if len(call.Args) == 0 {
		return
	}
	if ck.shared(call.Args[0], map[types.Object]bool{}) && !ck.suppressed(call) {
		ck.pass.Reportf(call.Args[0].Pos(),
			"parallel shard applies %s to an engine-shared column: bulk writes race across shards (//fdlint:shard-ok REASON if the range is shard-owned)", name)
	}
}

// shared reports whether the expression denotes engine-shared storage
// NOT narrowed to a shard-owned element: rooted at the receiver or a
// package-level variable, with no derived index step on the path.
// Local aliases are chased through their definitions (any shared
// definition makes the alias shared).
func (ck *checker) shared(e ast.Expr, visited map[types.Object]bool) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := dataflow.ObjectOf(ck.pass.TypesInfo, v)
		if obj == nil || visited[obj] {
			return false
		}
		visited[obj] = true
		if ck.isReceiver(obj) {
			return true
		}
		if ck.chains.IsParam(obj) {
			// Parameters are the dispatcher's grant to this shard.
			return false
		}
		defs := ck.chains.Defs(obj)
		if len(defs) == 0 {
			// Free variable: package-level state is shared; anything
			// else (a closed-over local) is out of scope here.
			_, isVar := obj.(*types.Var)
			return isVar && obj.Parent() == obj.Pkg().Scope()
		}
		for _, d := range defs {
			if d.X != nil && ck.shared(d.X, visited) {
				return true
			}
		}
		return false
	case *ast.SelectorExpr:
		return ck.shared(v.X, visited)
	case *ast.StarExpr:
		return ck.shared(v.X, visited)
	case *ast.UnaryExpr:
		return ck.shared(v.X, visited)
	case *ast.IndexExpr:
		// A derived index narrows shared storage to an element this
		// shard owns; an unproven index leaves it shared.
		if ck.eval.Eval(v.Index) == derived {
			return false
		}
		return ck.shared(v.X, visited)
	case *ast.SliceExpr:
		if v.Low != nil && v.High != nil &&
			ck.eval.Eval(v.Low) == derived && ck.eval.Eval(v.High) == derived {
			return false
		}
		return ck.shared(v.X, visited)
	}
	return false
}

func (ck *checker) isReceiver(obj types.Object) bool {
	return ck.chains.Receiver() != nil && obj == ck.chains.Receiver()
}

// suppressed reports whether a reasoned //fdlint:shard-ok governs the
// node's line.
func (ck *checker) suppressed(n ast.Node) bool {
	d, ok := ck.af.Has(n, "shard-ok")
	return ok && d.Reason != ""
}

// transfer is the index-provenance lattice: parameters are derived
// roots; arithmetic, conversions, slicing, indexing, and calls join
// their operands' derivation; fields and literals prove nothing.
func (ck *checker) transfer(e ast.Expr, eval func(ast.Expr) dataflow.Value) dataflow.Value {
	switch v := e.(type) {
	case *ast.Ident:
		obj := dataflow.ObjectOf(ck.pass.TypesInfo, v)
		if obj != nil && ck.chains.IsParam(obj) {
			return derived
		}
		return dataflow.Bottom
	case *ast.BinaryExpr:
		return dataflow.Join(eval(v.X), eval(v.Y))
	case *ast.UnaryExpr:
		return eval(v.X)
	case *ast.IndexExpr:
		// An element selected by a derived index is shard-owned data
		// (one level of indirection through partition columns:
		// e.activeCells[ci], e.slotChoice[i]).
		return dataflow.Join(eval(v.X), eval(v.Index))
	case *ast.SliceExpr:
		val := eval(v.X)
		if v.Low != nil {
			val = dataflow.Join(val, eval(v.Low))
		}
		if v.High != nil {
			val = dataflow.Join(val, eval(v.High))
		}
		return val
	case *ast.CallExpr:
		if tv, ok := ck.pass.TypesInfo.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return eval(v.Args[0])
		}
		val := dataflow.Bottom
		for _, a := range v.Args {
			val = dataflow.Join(val, eval(a))
		}
		return val
	}
	return dataflow.Bottom
}

// checkSerial finds //fdlint:serial declarations in fd and verifies the
// declared values stay serial: never stored into a struct field, never
// passed to a //fdlint:parallel function.
func checkSerial(pass *analysis.Pass, af *annotate.File, fd *ast.FuncDecl, parallelFuncs map[types.Object]bool) {
	serial := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if _, ok := af.Has(as, "serial"); !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					serial[obj] = true
				}
			}
		}
		return true
	})
	if len(serial) == 0 {
		return
	}
	isSerial := func(obj types.Object) bool { return serial[obj] }

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				if _, ok := lhs.(*ast.SelectorExpr); !ok {
					continue
				}
				if i < len(v.Rhs) && dataflow.Mentions(pass.TypesInfo, v.Rhs[i], isSerial) {
					pass.Reportf(v.Pos(), "serial-only stream stored into a struct field: //fdlint:serial values must not outlive the serial section")
				}
			}
		case *ast.CompositeLit:
			for _, elt := range v.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if id, ok := ast.Unparen(val).(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil && serial[obj] {
						pass.Reportf(val.Pos(), "serial-only stream stored into a composite literal: //fdlint:serial values must not outlive the serial section")
					}
				}
			}
		case *ast.CallExpr:
			callee := dataflow.Callee(pass.TypesInfo, v)
			if callee == nil || !parallelFuncs[callee] {
				return true
			}
			for _, arg := range v.Args {
				if dataflow.Mentions(pass.TypesInfo, arg, isSerial) {
					pass.Reportf(arg.Pos(), "serial-only stream passed to //fdlint:parallel function %s: worker interleaving would perturb its draw sequence", callee.Name())
				}
			}
		}
		return true
	})
}
