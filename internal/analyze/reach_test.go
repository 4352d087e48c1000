package analyze_test

import (
	"bufio"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/analyze/load"
)

// unreachableAllowlist names the module's declarations that no program
// reaches today, one `pkgpath.Name` or `pkgpath.Type.Method` per line,
// each followed by a `# tag` comment: "harness", "kept" (a test of live
// code reads it) or "staged" (waiting for deletion).
const unreachableAllowlist = "testdata/unreachable.txt"

// stagedLines is the number of "staged" lines in the allowlist. It only
// goes down: deleting staged code lowers it, and a declaration that a
// change leaves unreachable is deleted in that change, not staged.
const stagedLines = 117

// allowlistTags are the tags an allowlist line may carry.
var allowlistTags = map[string]bool{"harness": true, "kept": true, "staged": true}

// The reachability guard: every package-level declaration and method in
// the module's non-test sources must be reachable from a program, or be
// listed in the allowlist. The roots are
//   - main and init functions and package-level var initialisers, in
//     every package of the module (cmd/, examples/, internal/ and the
//     facade);
//   - every exported name of the fdbackscatter facade;
//   - every module object the benchmark module in perfbench/ uses.
//
// A declaration is reached when a reached declaration's source names
// it. A method is also reached when its receiver type is reached and it
// implements a method of an interface declared or used anywhere in the
// module's import graph, since it can then be called dynamically. The
// test fails on an unreachable declaration that is not listed, and on a
// listed name that is now reachable or gone, so the allowlist always
// holds exactly the unreachable code. It also fails on a line whose tag
// is missing or unknown, and when the number of staged lines differs
// from stagedLines.
func TestUnreachableDeclarationsAllowlisted(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module twice")
	}
	l := load.New()
	roots, err := l.Roots("repro/...")
	if err != nil {
		t.Fatal(err)
	}
	bl := load.New()
	bl.Dir = "../../perfbench"
	benchPkgs, err := bl.Roots("./...")
	if err != nil {
		t.Fatal(err)
	}

	r := newReach(roots)
	for _, p := range benchPkgs {
		for _, obj := range p.TypesInfo.Uses {
			if obj, ok := r.byKey[declKey(origin(obj))]; ok {
				r.mark(obj)
			}
		}
	}
	r.run()

	unreachable := map[string]string{}
	for obj := range r.decls {
		if !r.reached[obj] {
			unreachable[declKey(obj)] = l.Fset().Position(obj.Pos()).String()
		}
	}
	listed := readAllowlist(t)
	staged := 0
	for _, tag := range listed {
		if tag == "staged" {
			staged++
		}
	}
	if staged > stagedLines {
		t.Errorf("%s has %d staged lines, more than the %d allowed; delete the newly unreachable code instead", unreachableAllowlist, staged, stagedLines)
	} else if staged < stagedLines {
		t.Errorf("%s has %d staged lines; lower stagedLines from %d to %d", unreachableAllowlist, staged, stagedLines, staged)
	}
	for _, k := range sortedKeys(unreachable) {
		if _, ok := listed[k]; !ok {
			t.Errorf("%s: %s is reached by no program; delete it, or list it in %s as kept if a test of live code reads it", unreachable[k], k, unreachableAllowlist)
		}
	}
	for _, k := range sortedKeys(listed) {
		if _, ok := unreachable[k]; !ok {
			t.Errorf("%s lists %s, which is now reachable or deleted; drop the line", unreachableAllowlist, k)
		}
	}
}

// reach is the module's declaration graph under a reachability walk.
type reach struct {
	decls   map[types.Object]declSite // every module declaration
	byKey   map[string]types.Object
	ifaces  []*types.Interface // interfaces declared or used in the import graph
	reached map[types.Object]bool
	queue   []types.Object
	rootFns []declSite // main, init and var initialisers
}

// declSite is a declaration's syntax and the type info to resolve it.
type declSite struct {
	node ast.Node
	info *types.Info
}

func newReach(roots []*load.Package) *reach {
	r := &reach{
		decls:   map[types.Object]declSite{},
		byKey:   map[string]types.Object{},
		reached: map[types.Object]bool{},
	}
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			r.ifaces = append(r.ifaces, it)
		}
	}
	seenPkg := map[*types.Package]bool{}
	var walkPkg func(p *types.Package)
	walkPkg = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walkPkg(imp)
		}
	}
	addIface(types.Universe.Lookup("error").Type())

	for _, p := range roots {
		walkPkg(p.Types)
		info := p.TypesInfo
		for _, tv := range info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		facade := p.ImportPath == "repro"
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					site := declSite{d, info}
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.Types.Name() == "main") {
						r.rootFns = append(r.rootFns, site)
						continue
					}
					r.add(info.Defs[d.Name], site, facade)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						site := declSite{spec, info}
						switch s := spec.(type) {
						case *ast.TypeSpec:
							r.add(info.Defs[s.Name], site, facade)
						case *ast.ValueSpec:
							if len(s.Values) > 0 && d.Tok == token.VAR {
								r.rootFns = append(r.rootFns, site)
							}
							for _, n := range s.Names {
								if n.Name != "_" {
									r.add(info.Defs[n], site, facade)
								}
							}
						}
					}
				}
			}
		}
	}
	return r
}

// add records one declaration; facade exports are roots.
func (r *reach) add(obj types.Object, site declSite, facade bool) {
	if obj == nil {
		return
	}
	r.decls[obj] = site
	r.byKey[declKey(obj)] = obj
	if facade && obj.Exported() {
		r.mark(obj)
	}
}

func (r *reach) mark(obj types.Object) {
	if _, ok := r.decls[obj]; ok && !r.reached[obj] {
		r.reached[obj] = true
		r.queue = append(r.queue, obj)
	}
}

// uses marks every module declaration the site's syntax names.
func (r *reach) uses(site declSite) {
	ast.Inspect(site.node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := site.info.Uses[id]; obj != nil {
				r.mark(origin(obj))
			}
		}
		return true
	})
}

// run walks the graph to a fixed point: names first, then the methods
// of reached types that satisfy an interface, until neither adds more.
func (r *reach) run() {
	for _, site := range r.rootFns {
		r.uses(site)
	}
	for len(r.queue) > 0 {
		for len(r.queue) > 0 {
			obj := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			r.uses(r.decls[obj])
		}
		for obj := range r.reached {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for _, it := range r.ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if sel := mset.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
						r.mark(origin(sel.Obj()))
					}
				}
			}
		}
	}
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// declKey names a declaration as the allowlist spells it.
func declKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// readAllowlist maps each listed name to its tag.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(unreachableAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line, tag, _ := strings.Cut(sc.Text(), "#")
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		tag = strings.TrimSpace(tag)
		if !allowlistTags[tag] {
			t.Errorf("%s lists %s with tag %q; tag it harness, kept or staged, or delete the code", unreachableAllowlist, line, tag)
		}
		if _, dup := listed[line]; dup {
			t.Errorf("%s lists %s twice", unreachableAllowlist, line)
		}
		listed[line] = tag
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return listed
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
