package bench

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/simrand"
	"repro/internal/trace"
)

// This file is the parallel substrate of the harness. Every experiment
// decomposes into independent cells — one per parameter point — and a
// cell's randomness is seeded from the run seed plus the cell's own
// parameters via subSeed, never from a shared stream. That makes each
// cell a pure function of its inputs, so the worker pool can execute
// cells in any order on any number of goroutines and the collected
// table is byte-identical to a serial run.

// AutoWorkers returns the worker count that "auto" (Workers <= 0 in the
// CLIs) resolves to: the number of usable CPUs.
func AutoWorkers() int { return runtime.GOMAXPROCS(0) }

// row is one computed table row as typed trace cells, in column order.
type row = []trace.Cell

// cellFunc computes one independent cell (one table row) of an
// experiment. It must not touch state shared with other cells; the
// arena it receives is owned by the calling worker and may be reused
// freely.
type cellFunc func(a *Arena) row

// cellSet queues an experiment's independent cells and executes them
// across a worker pool, emitting rows in submission order. Each worker
// owns one scratch Arena for the whole run.
type cellSet struct {
	workers int
	cells   []cellFunc
}

// cells returns a cellSet honouring cfg.Workers.
func (c RunConfig) cells() *cellSet { return &cellSet{workers: c.Workers} }

// add queues one cell.
func (s *cellSet) add(fn cellFunc) { s.cells = append(s.cells, fn) }

// flushTo runs every queued cell and appends one row per cell to tbl,
// in the order the cells were added, then empties the queue so the set
// can be reused for a further batch.
func (s *cellSet) flushTo(tbl *trace.Table) {
	rows := s.run()
	tbl.Grow(len(rows))
	for _, r := range rows {
		tbl.AddCells(r)
	}
	s.cells = s.cells[:0]
}

// run executes the queued cells with the configured parallelism and
// returns their rows indexed by submission position. Workers claim
// cells from a shared counter, so uneven cell costs balance across the
// pool; results land in out[i] regardless of completion order. Every
// worker carries its own Arena; cells reset whatever arena state they
// borrow, so results never depend on which worker (or in which order)
// ran a cell — the byte-identical-output guarantee is unchanged.
func (s *cellSet) run() []row {
	out := make([]row, len(s.cells))
	workers := s.workers
	if workers > len(s.cells) {
		workers = len(s.cells)
	}
	if workers <= 1 {
		a := newArena()
		for i, c := range s.cells {
			out[i] = c(a)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			a := newArena()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.cells) {
					return
				}
				out[i] = s.cells[i](a)
			}
		}()
	}
	wg.Wait()
	return out
}

// subSeed derives a deterministic per-cell seed from the run seed, the
// experiment id, and the cell's identifying parameters. Distinct cells
// get decorrelated streams, and the value depends only on the inputs —
// never on goroutine scheduling — so parallel runs reproduce serial
// ones exactly.
func subSeed(seed uint64, id string, parts ...uint64) uint64 {
	const (
		offset64 = 0xcbf29ce484222325 // FNV-1a
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	h ^= simrand.Mix64(seed)
	for _, p := range parts {
		h = simrand.Mix64(h ^ simrand.Mix64(p+0x9e3779b97f4a7c15))
	}
	return simrand.Mix64(h)
}

// fbits projects a float parameter into subSeed's part space.
func fbits(f float64) uint64 { return math.Float64bits(f) }
