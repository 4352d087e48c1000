package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

// evalQuick regenerates the paper's evaluation: one serial pass over
// every registered experiment in quick mode per operation.
type evalQuick struct {
	cfg  bench.RunConfig
	exps []bench.Experiment
	want [][]byte       // each experiment's table rendered from a Workers: 2 run
	got  []bytes.Buffer // this pass's tables, reused across passes
}

const evalExperiments = 22

func (w *evalQuick) setUp(seed uint64) error {
	w.cfg = bench.RunConfig{Seed: deriveSeed(seed, wEval), Quick: true, Workers: 1}
	w.exps = bench.List()
	if len(w.exps) != evalExperiments {
		return fmt.Errorf("%d experiments registered, want %d", len(w.exps), evalExperiments)
	}
	ref := w.cfg
	ref.Workers = 2
	w.want = make([][]byte, len(w.exps))
	w.got = make([]bytes.Buffer, len(w.exps))
	for i, e := range w.exps {
		var b bytes.Buffer
		if err := e.Run(ref).Table.WriteText(&b); err != nil {
			return fmt.Errorf("render %s: %w", e.ID, err)
		}
		w.want[i] = b.Bytes()
	}
	if res := w.measure(0, 1, nil); res.failed > 0 {
		return fmt.Errorf("warm-up pass differs from the Workers: 2 reference")
	}
	return nil
}

func (w *evalQuick) measure(d time.Duration, minOps int, tr *tracer) *result {
	res := &result{unit: "passes"}
	heap := startHeapSampler()
	start := time.Now()
	for n := 0; n < minOps || time.Since(start) < d; n++ {
		runtime.GC() // every operation starts from a collected heap
		heap.reset()
		first, op, ok := w.pass(tr, int64(n))
		heap.mark()
		res.attempted++
		if !ok {
			res.failed++
		}
		res.op = append(res.op, op)
		res.first = append(res.first, first)
	}
	res.elapsed = time.Since(start)
	res.heap = heap.close()
	return res
}

// pass runs every experiment and renders its table, then compares the
// tables with the reference outside the timed region.
func (w *evalQuick) pass(tr *tracer, n int64) (firstMs, opMs float64, ok bool) {
	t0 := time.Now()
	pid := tr.begin("pass", 0, n)
	for i, e := range w.exps {
		sid := tr.begin("bench."+e.ID, pid, n)
		res := e.Run(w.cfg)
		tr.end(sid)
		if i == 0 {
			firstMs = ms(time.Since(t0))
		}
		rid := tr.begin("trace.render", pid, n)
		w.got[i].Reset()
		err := res.Table.WriteText(&w.got[i])
		tr.end(rid)
		if err != nil {
			w.got[i].Reset()
		}
	}
	tr.end(pid)
	opMs = ms(time.Since(t0))
	ok = true
	for i := range w.exps {
		ok = ok && bytes.Equal(w.got[i].Bytes(), w.want[i])
	}
	return firstMs, opMs, ok
}

func (w *evalQuick) layers(res *result, spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, l := range layerSpecs {
		if l.At == wEval && strings.HasPrefix(l.Name, "bench.") {
			out[l.Name] = median(selfMs(spans, strings.TrimSuffix(l.Name, "_ms")))
		}
	}
	// Rendering time per pass: the render spans summed by pass.
	perPass := map[int64]float64{}
	for _, s := range named(spans, "trace.render") {
		perPass[s.Req] += s.selfMs()
	}
	var render []float64
	for n := int64(0); n < int64(len(perPass)); n++ {
		render = append(render, perPass[n])
	}
	out["trace.render_ms"] = median(render)
	return out
}

func (w *evalQuick) close() {}
