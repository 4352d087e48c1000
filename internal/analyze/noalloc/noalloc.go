// Package noalloc statically enforces the zero-alloc contract on
// functions annotated `//fdlint:noalloc` in their doc comment — the
// hot paths guarded at runtime by testing.AllocsPerRun tests
// (core.TransferFrameInto, the netsim round loop, the streaming
// snapshot path). The runtime tests catch regressions after the fact;
// this analyzer names the offending construct at the line that
// introduced it.
//
// Inside a noalloc function the analyzer flags constructs that
// allocate or are overwhelmingly likely to:
//
//   - go and defer statements, and function literals (closure headers)
//   - &T{...} composite literals, and slice/map composite literals
//     (struct VALUE literals are allowed: `*res = Result{...}` writes
//     in place)
//   - append whose destination is not cap-managed — the destination
//     must be re-sliced (x = x[:0], or initialized from a slice
//     expression) somewhere in the function, the idiom the engine uses
//     to reuse scratch capacity
//   - interface conversions of non-pointer-shaped values (pointers,
//     channels, maps, funcs and unsafe.Pointer box for free; structs,
//     strings and numbers allocate)
//   - any call into package fmt
//   - string concatenation (+ / +=) and string<->[]byte/[]rune
//     conversions
//   - make and new
//
// A finding is suppressed by `//fdlint:alloc-ok <reason>` on its line;
// a bare alloc-ok with no reason is itself a diagnostic (noalloc owns
// that hygiene rule).
//
// The check is necessarily a lint, not a proof: escape analysis can
// rescue some flagged forms and pathological code can allocate in ways
// this list misses. The contract is that hot-path code sticks to the
// subset the analyzer can vouch for, and anything cleverer carries an
// alloc-ok justification.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analyze/analysis"
	"repro/internal/analyze/annotate"
	"repro/internal/analyze/dataflow"
)

// Analyzer is the noalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc: "functions annotated //fdlint:noalloc must avoid allocating " +
		"constructs: closures, escaping composite literals, " +
		"uncapped appends, interface boxing, fmt, string building, " +
		"make/new",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		af := annotate.NewFile(pass.Fset, f)
		for _, d := range af.All() {
			if d.Verb == "alloc-ok" && d.Reason == "" {
				pass.Reportf(d.Pos, "//fdlint:alloc-ok suppression is missing a reason")
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := annotate.FuncHas(pass.Fset, fd, "noalloc"); ok {
				c := &checker{pass: pass, af: af, fd: fd}
				c.capManaged = capManagedPaths(fd.Body)
				ast.Inspect(fd.Body, c.visit)
			}
		}
	}
	return nil, nil
}

type checker struct {
	pass *analysis.Pass
	af   *annotate.File
	fd   *ast.FuncDecl
	// capManaged holds the expression paths the function re-slices:
	// append destinations rooted at one of these reuse capacity.
	capManaged map[string]bool
}

// report emits a finding unless the line carries a justified alloc-ok.
func (c *checker) report(n ast.Node, format string, args ...interface{}) {
	if d, ok := c.af.Has(n, "alloc-ok"); ok {
		_ = d // bare alloc-ok is reported once per directive in run
		return
	}
	c.pass.Reportf(n.Pos(), "//fdlint:noalloc function %s: "+format,
		append([]interface{}{c.fd.Name.Name}, args...)...)
}

func (c *checker) visit(n ast.Node) bool {
	switch v := n.(type) {
	case *ast.GoStmt:
		c.report(v, "spawns a goroutine")
		return false
	case *ast.DeferStmt:
		c.report(v, "defers (defer records allocate)")
		return false
	case *ast.FuncLit:
		c.report(v, "declares a closure")
		return false // the literal's body is the closure's problem
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if _, ok := v.X.(*ast.CompositeLit); ok {
				c.report(v, "takes the address of a composite literal")
			}
		}
	case *ast.CompositeLit:
		c.checkCompositeLit(v)
	case *ast.CallExpr:
		return c.checkCall(v)
	case *ast.BinaryExpr:
		if v.Op == token.ADD && c.isString(v.X) {
			c.report(v, "concatenates strings")
		}
	case *ast.AssignStmt:
		if v.Tok == token.ADD_ASSIGN && len(v.Lhs) == 1 && c.isString(v.Lhs[0]) {
			c.report(v, "concatenates strings")
		}
		c.checkAssignBoxing(v)
	case *ast.ValueSpec:
		c.checkSpecBoxing(v)
	case *ast.ReturnStmt:
		c.checkReturnBoxing(v)
	}
	return true
}

// checkCompositeLit flags slice and map literals; struct value
// literals write in place when assigned through a pointer.
func (c *checker) checkCompositeLit(lit *ast.CompositeLit) {
	tv, ok := c.pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		c.report(lit, "constructs a slice literal")
	case *types.Map:
		c.report(lit, "constructs a map literal")
	}
}

func (c *checker) checkCall(call *ast.CallExpr) bool {
	// Type conversions: string<->[]byte/[]rune copy their contents.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			c.checkConversion(call, tv.Type, call.Args[0])
		}
		return true
	}

	// Builtins.
	if name := dataflow.BuiltinName(c.pass.TypesInfo, call); name != "" {
		switch name {
		case "make":
			c.report(call, "calls make")
		case "new":
			c.report(call, "calls new")
		case "append":
			c.checkAppend(call)
		}
		return true
	}

	// fmt calls.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := c.pass.TypesInfo.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			c.report(call, "calls fmt.%s (interface boxing and formatting buffers)", obj.Name())
			return true
		}
	}

	// Interface-typed parameters box concrete arguments.
	c.checkCallBoxing(call)
	return true
}

func (c *checker) checkConversion(call *ast.CallExpr, to types.Type, arg ast.Expr) {
	from := c.pass.TypesInfo.Types[arg].Type
	if from == nil {
		return
	}
	if (isStringType(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isStringType(from)) {
		c.report(call, "converts between string and byte/rune slice (copies)")
		return
	}
	// Explicit conversion to an interface type boxes like assignment.
	c.checkBoxing(arg, to)
}

// checkAppend enforces the cap-managed destination rule.
func (c *checker) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	// Appending to a fresh re-slice (append(x[:0], ...)) reuses x's
	// capacity directly.
	if _, ok := dst.(*ast.SliceExpr); ok {
		return
	}
	if path := exprPath(dst); path != "" && c.capManaged[path] {
		return
	}
	c.report(call, "appends to %q, which is never re-sliced in this function; grow into reused capacity (x = x[:0]) or justify with //fdlint:alloc-ok", exprString(dst))
}

// --- interface boxing ---

func (c *checker) checkAssignBoxing(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		var lt types.Type
		if as.Tok == token.DEFINE {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
					lt = obj.Type()
				}
			}
		} else if tv, ok := c.pass.TypesInfo.Types[lhs]; ok {
			lt = tv.Type
		}
		c.checkBoxing(as.Rhs[i], lt)
	}
}

func (c *checker) checkSpecBoxing(vs *ast.ValueSpec) {
	if vs.Type == nil || len(vs.Values) == 0 {
		return
	}
	lt := c.pass.TypesInfo.Types[vs.Type].Type
	for _, v := range vs.Values {
		c.checkBoxing(v, lt)
	}
}

func (c *checker) checkReturnBoxing(ret *ast.ReturnStmt) {
	obj := c.pass.TypesInfo.Defs[c.fd.Name]
	if obj == nil {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		c.checkBoxing(r, sig.Results().At(i).Type())
	}
}

func (c *checker) checkCallBoxing(call *ast.CallExpr) {
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case call.Ellipsis.IsValid():
			if i < params.Len() {
				pt = params.At(i).Type()
			}
			if sig.Variadic() && i == params.Len()-1 {
				pt = nil // slice passed through verbatim, no boxing
			}
		case sig.Variadic() && i >= params.Len()-1:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		c.checkBoxing(arg, pt)
	}
}

// checkBoxing reports expr if storing it into target type boxes a
// non-pointer-shaped value into an interface.
func (c *checker) checkBoxing(expr ast.Expr, target types.Type) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	at := c.pass.TypesInfo.Types[expr].Type
	if at == nil || types.IsInterface(at) || isPointerShaped(at) {
		return
	}
	if c.pass.TypesInfo.Types[expr].IsNil() {
		return
	}
	c.report(expr, "boxes a %s into interface %s (non-pointer values escape)", at, target)
}

// --- helpers ---

func (c *checker) isString(e ast.Expr) bool {
	t := c.pass.TypesInfo.Types[e].Type
	return t != nil && isStringType(t)
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isPointerShaped reports whether values of t fit an interface word
// without boxing.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// capManagedPaths collects every expression path the function
// re-slices: the X of any slice expression, and any variable whose
// initializer contains a slice expression.
func capManagedPaths(body *ast.BlockStmt) map[string]bool {
	paths := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SliceExpr:
			if p := exprPath(ast.Unparen(v.X)); p != "" {
				paths[p] = true
			}
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				if containsSliceExpr(v.Rhs[i]) {
					if p := exprPath(ast.Unparen(lhs)); p != "" {
						paths[p] = true
					}
				}
			}
		}
		return true
	})
	return paths
}

func containsSliceExpr(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.SliceExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

// exprPath renders ident/selector chains ("e.activeCells"); other
// shapes yield "".
func exprPath(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if base := exprPath(ast.Unparen(v.X)); base != "" {
			return base + "." + v.Sel.Name
		}
	}
	return ""
}

// exprString is a compact printable form for diagnostics.
func exprString(e ast.Expr) string {
	if p := exprPath(e); p != "" {
		return p
	}
	return "<expr>"
}
