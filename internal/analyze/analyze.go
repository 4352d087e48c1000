// Package analyze assembles the fdlint analyzer suite: the static
// checks that enforce this repo's determinism and zero-alloc contracts
// at the source level, complementing the runtime gates (byte-identical
// determinism tests, AllocsPerRun tests, the CI perf gate).
//
//   - purestream: engine packages are pure functions of
//     (Scenario, seed) — no math/rand, wall clocks, or environment —
//     and every *simrand.Source is provably seeded from the run seed
//     via the blessed split/hash constructors, never from a literal or
//     ambient state, and never aliased across loop elements.
//   - orderedrange: map iteration order never reaches an output sink
//     unsorted.
//   - noalloc: functions annotated //fdlint:noalloc avoid allocating
//     constructs.
//   - sharded: //fdlint:parallel bodies are channel-free, touch only
//     parameter-rooted RNG state, and write struct-of-arrays columns
//     only at indices derived from the shard's own range parameters;
//     serial-only streams stay serial; in netsim, goroutines exist
//     only in the worker pool.
//   - validatecover: every JSON-tagged scenario field is read by
//     Validate or carries //fdlint:novalidate REASON.
package analyze

import (
	"repro/internal/analyze/analysis"
	"repro/internal/analyze/noalloc"
	"repro/internal/analyze/orderedrange"
	"repro/internal/analyze/purestream"
	"repro/internal/analyze/sharded"
	"repro/internal/analyze/validatecover"
)

// All returns the full fdlint suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		noalloc.Analyzer,
		orderedrange.Analyzer,
		purestream.Analyzer,
		sharded.Analyzer,
		validatecover.Analyzer,
	}
}
