// Package validatecover keeps scenario knobs from dodging
// bounds-checking: every JSON-tagged field on the package's Scenario
// struct — and on every same-package struct reachable from it through
// fields, pointers, slices, and maps (reader specs, rate adaptation,
// congestion, faults) — must be read somewhere in the static call
// graph of Scenario.Validate, or carry an explicit
// //fdlint:novalidate REASON directive. A new knob that deserializes
// from JSON but is never looked at by Validate ships without bounds
// checks the way ReqSNRdB once did; this analyzer makes that a lint
// failure instead of a code-review catch.
package validatecover

import (
	"go/ast"
	"go/types"
	"reflect"
	"strings"

	"repro/internal/analyze/analysis"
	"repro/internal/analyze/annotate"
	"repro/internal/analyze/dataflow"
)

// Analyzer is the validatecover analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "validatecover",
	Doc: "every JSON-tagged field on Scenario and its nested specs must be " +
		"read by Validate's call graph or carry //fdlint:novalidate REASON",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	files := map[string]*annotate.File{}
	for _, f := range pass.Files {
		af := annotate.NewFile(pass.Fset, f)
		files[pass.Fset.Position(f.Pos()).Filename] = af
		for _, d := range af.All() {
			if d.Verb == "novalidate" && d.Reason == "" {
				pass.Reportf(d.Pos, "//fdlint:novalidate exemption requires a reason")
			}
		}
	}

	scenario := scenarioType(pass.Pkg)
	if scenario == nil {
		return nil, nil
	}
	validate := lookupMethod(scenario, "Validate")
	if validate == nil {
		// A Scenario without any Validate: every knob is unvalidated,
		// but that is an architecture gap, not a per-field finding.
		pass.Reportf(scenario.Obj().Pos(), "type Scenario has JSON-tagged fields but no Validate method")
		return nil, nil
	}

	read := reachableFieldReads(pass, validate)
	for _, field := range taggedFields(pass.Pkg, scenario) {
		if read[field] {
			continue
		}
		pos := field.Pos()
		af := files[pass.Fset.Position(pos).Filename]
		if af != nil {
			if d, ok := af.HasAt(pos, "novalidate"); ok && d.Reason != "" {
				continue
			}
		}
		pass.Reportf(pos,
			"JSON-tagged field %s.%s is never read by Validate: new knobs must be bounds-checked or carry //fdlint:novalidate REASON",
			ownerName(field), field.Name())
	}
	return nil, nil
}

// scenarioType resolves the package's Scenario struct type.
func scenarioType(pkg *types.Package) *types.Named {
	obj, ok := pkg.Scope().Lookup("Scenario").(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// lookupMethod resolves a method on T or *T.
func lookupMethod(named *types.Named, name string) *types.Func {
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

// taggedFields walks the struct graph from Scenario through
// same-package named types and collects every JSON-tagged field
// (tag "-" is not a knob and is skipped).
func taggedFields(pkg *types.Package, root *types.Named) []*types.Var {
	var out []*types.Var
	seen := map[*types.Named]bool{}
	var visit func(n *types.Named)
	visit = func(n *types.Named) {
		if seen[n] {
			return
		}
		seen[n] = true
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			tag := reflect.StructTag(st.Tag(i)).Get("json")
			name, _, _ := strings.Cut(tag, ",")
			if tag != "" && name != "-" {
				out = append(out, f)
			}
			if nested := namedStruct(pkg, f.Type()); nested != nil {
				visit(nested)
			}
		}
	}
	visit(root)
	return out
}

// namedStruct unwraps pointers, slices, arrays, and map values down to
// a named struct type declared in pkg, or nil.
func namedStruct(pkg *types.Package, t types.Type) *types.Named {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Slice:
			t = v.Elem()
		case *types.Array:
			t = v.Elem()
		case *types.Map:
			t = v.Elem()
		default:
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() != pkg {
				return nil
			}
			if _, ok := named.Underlying().(*types.Struct); !ok {
				return nil
			}
			return named
		}
	}
}

// reachableFieldReads walks the static same-package call graph from
// the Validate method and records every struct field selected anywhere
// in it. Reads and writes both count — Validate-reachable code only
// inspects — and promoted/embedded selections record the final field.
func reachableFieldReads(pass *analysis.Pass, start *types.Func) map[*types.Var]bool {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}

	read := map[*types.Var]bool{}
	visited := map[*types.Func]bool{}
	queue := []*types.Func{start}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if visited[fn] {
			continue
		}
		visited[fn] = true
		fd := decls[fn]
		if fd == nil || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := pass.TypesInfo.Selections[v]; ok && sel.Kind() == types.FieldVal {
					if f, ok := sel.Obj().(*types.Var); ok {
						read[f] = true
					}
				}
			case *ast.CallExpr:
				if callee := dataflow.Callee(pass.TypesInfo, v); callee != nil && callee.Pkg() == pass.Pkg && !visited[callee] {
					queue = append(queue, callee)
				}
			}
			return true
		})
	}
	return read
}

// ownerName renders the declaring struct's type name for diagnostics.
func ownerName(f *types.Var) string {
	if owner := ownerType(f); owner != "" {
		return owner
	}
	return "Scenario"
}

// ownerType finds the named type whose struct declares f. The
// position-based scan is enough for diagnostics: field vars carry
// their declaration position inside the struct type's declaration.
func ownerType(f *types.Var) string {
	pkg := f.Pkg()
	if pkg == nil {
		return ""
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == f {
				return tn.Name()
			}
		}
	}
	return ""
}
