// Package purestream enforces the engine's determinism contract at its
// root: every simulation result must be a pure function of
// (Scenario, seed), so engine packages may not reach for ambient
// randomness, wall clocks, or process environment. All randomness must
// flow from the seeded simrand split tree (internal/simrand), whose
// sources are threaded explicitly through the code — including through
// interfaces.
//
// Two rules share one ban table. Directly, every import or use of an
// ambient escape hatch is flagged. Through the seed-provenance lattice
// (seed.go), every *simrand.Source must be constructed (or reseeded)
// from a value derived from the run seed through the blessed
// operations — simrand.Mix64, integer arithmetic on seed values, and
// package helpers that provably return seed-derived values (tracked as
// DerivesSeed object facts). Sources seeded from literals, banned
// ambient state, or unproven values are flagged, as is storing one
// loop-invariant source value into per-element storage (two tags or
// shards would then share — alias — a single stream).
//
// The escape hatch for the seed rules is //fdlint:stream-ok REASON on
// the offending line, for sources that are provably re-seeded before
// every use (scratch sources restored via SetState, per-window Reseed
// loops).
package purestream

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analyze/analysis"
	"repro/internal/analyze/annotate"
)

// EnginePackages are the import-path suffixes purestream governs: the
// packages that execute inside a simulation and therefore must stay
// pure. Matching by suffix keeps the analyzer honest on corpus
// packages and on a future module rename.
var EnginePackages = []string{
	"internal/core",
	"internal/netsim",
	"internal/mac",
	"internal/channel",
	"internal/phy",
	"internal/sigproc",
	"internal/rateadapt",
	"internal/energy",
}

// bans maps each ambient escape hatch to the reason engine packages
// must not use it. A key is either an import path, banning the whole
// package, or "pkgname.Func", banning one package-level function or
// variable; the latter is keyed by the package's name, not its import
// path ("time.Now"). Both the direct diagnostics and the seed
// lattice's tainted level read this one table.
var bans = map[string]string{
	"math/rand":      "unseeded global randomness; thread a simrand.Source instead",
	"math/rand/v2":   "RNG outside the seeded split tree; thread a simrand.Source instead",
	"crypto/rand":    "nondeterministic entropy; thread a simrand.Source instead",
	"time.Now":       "wall-clock time makes results time-dependent",
	"time.Since":     "wall-clock time makes results time-dependent",
	"time.Until":     "wall-clock time makes results time-dependent",
	"os.Getenv":      "environment reads make results host-dependent",
	"os.LookupEnv":   "environment reads make results host-dependent",
	"os.Environ":     "environment reads make results host-dependent",
	"os.Hostname":    "host identity makes results host-dependent",
	"runtime.NumCPU": "hardware shape must not influence simulation output",
}

// bannedName returns the "pkgname.Func" key of a package-level
// function or variable, and whether bans names it. Methods have a
// receiver and are reached through explicitly threaded values, so
// they are never banned by name.
func bannedName(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch o := obj.(type) {
	case *types.Func:
		if o.Type().(*types.Signature).Recv() != nil {
			return "", false
		}
	case *types.Var:
		if o.Parent() != o.Pkg().Scope() {
			return "", false
		}
	default:
		return "", false
	}
	name := obj.Pkg().Name() + "." + obj.Name()
	_, bad := bans[name]
	return name, bad
}

// Analyzer is the purestream analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "purestream",
	Doc: "engine packages must be pure functions of (Scenario, seed): " +
		"no math/rand or crypto/rand, no wall clocks, no environment reads; " +
		"every *simrand.Source is seeded from the run seed via the blessed " +
		"split/hash constructors and never aliased across loop elements",
	Run: run,
}

// Governs reports whether purestream applies to the package path.
func Governs(path string) bool {
	for _, sfx := range EnginePackages {
		if path == sfx || strings.HasSuffix(path, "/"+sfx) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !Governs(pass.Pkg.Path()) {
		return nil, nil
	}
	exportDeriveFacts(pass)
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if why, bad := bans[path]; bad {
				pass.Reportf(imp.Pos(), "engine package imports %s: %s", path, why)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if name, bad := bannedName(pass.TypesInfo.Uses[sel.Sel]); bad {
					pass.Reportf(sel.Pos(), "engine package uses %s: %s", name, bans[name])
				}
			}
			return true
		})
		af := annotate.NewFile(pass.Fset, f)
		for _, d := range af.All() {
			if d.Verb == "stream-ok" && d.Reason == "" {
				pass.Reportf(d.Pos, "//fdlint:stream-ok suppression requires a reason")
			}
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, af, fd)
			}
		}
	}
	return nil, nil
}
