package netsim

import (
	"fmt"
	"testing"

	"repro/internal/simrand"
)

// benchPhaseTags is the population the per-phase layer benchmarks run:
// eight full tag shards of the million preset.
const benchPhaseTags = 1 << 15

// benchEngine builds a million-preset engine at benchPhaseTags tags and
// runs its first round, so every phase sees settled, realistic state
// (associations, energy, rate-adaptation rows; with congestion set,
// the cubic controller's windows and timers). The pool is stopped when
// the benchmark ends.
func benchEngine(b *testing.B, workers int, congestion bool) (e *engine, slots *simrand.Source) {
	b.Helper()
	sc, err := Preset("million")
	if err != nil {
		b.Fatal(err)
	}
	sc.Tags = benchPhaseTags
	if congestion {
		sc.Congestion.Controller = CongestionCubic
	}
	// The run's split order: placement, traffic, slots, mobility.
	root := simrand.New(1)
	place, traffic, slots := root.Split(), root.Split(), root.Split()
	root.Split()
	e, err = newEngine(sc, 1, workers, root, place)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.pool.stop)
	e.step(0, traffic, slots, nil, nil, nil)
	return e, slots
}

// BenchmarkLayerNetsimPhase times one pool.dispatch of each parallel
// per-tag and per-cell phase on a prebuilt engine, at 1 and 2 workers,
// so an end-to-end engine change can be traced to the phase it moved.
// windows replays the same contention window every iteration: every
// tag's queue is topped up far beyond what the benchmark can drain and
// the slot draws are taken once. cong runs on an engine built with the
// cubic controller, since the pass does not exist without one.
func BenchmarkLayerNetsimPhase(b *testing.B) {
	phases := []struct {
		name  string
		ph    phaseKind
		setup func(e *engine, slots *simrand.Source)
	}{
		{"init", phaseInit, nil},
		{"derive", phaseDerive, nil},
		{"settle", phaseSettle, nil},
		{"drain", phaseDrain, func(e *engine, _ *simrand.Source) {
			e.res.SimulatedS = float64(e.res.ElapsedBytes) * e.secondsPerByte
		}},
		{"windows", phaseWindows, func(e *engine, slots *simrand.Source) {
			for i := range e.tags.queue {
				e.tags.queue[i] = 1 << 30
			}
			e.buildActiveCells()
			e.drawSlots(slots)
		}},
		{"cong", phaseCong, nil},
	}
	for _, p := range phases {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", p.name, workers), func(b *testing.B) {
				e, slots := benchEngine(b, workers, p.ph == phaseCong)
				if p.setup != nil {
					p.setup(e, slots)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.pool.dispatch(p.ph)
				}
			})
		}
	}
}
