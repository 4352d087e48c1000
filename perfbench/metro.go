package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/netsim"
)

// netsimMetro runs the million preset at 2^17 tags on two engine
// workers, one run per operation. It streams through RunStreamOptions,
// whose result is byte-identical to RunParallel's, so that the time to
// the first round is visible from outside the engine.
type netsimMetro struct {
	sc   netsim.Scenario
	seed uint64
	want string // the Workers: 1 batch run, rendered
	// Ratios of the last run, kept as numbers so that no result outlives
	// its run on the heap.
	delivery, collisions float64
}

const metroTags = 1 << 17

func (w *netsimMetro) setUp(seed uint64) error {
	sc, err := netsim.Preset("million")
	if err != nil {
		return err
	}
	sc.Tags = metroTags
	w.sc, w.seed = sc, deriveSeed(seed, wMetro)
	ref, err := netsim.RunParallel(w.sc, w.seed, 1)
	if err != nil {
		return err
	}
	if !conserved(ref) {
		return fmt.Errorf("reference run delivers or drops more frames than offered")
	}
	w.want = ref.String()
	if res := w.measure(0, 1, nil); res.failed > 0 {
		return fmt.Errorf("warm-up run differs from the Workers: 1 reference")
	}
	return nil
}

func conserved(r *netsim.NetResult) bool {
	return r.FramesDelivered+r.FramesDropped <= r.FramesOffered
}

func (w *netsimMetro) measure(d time.Duration, minOps int, tr *tracer) *result {
	res := &result{unit: "runs"}
	heap := startHeapSampler()
	start := time.Now()
	for n := 0; n < minOps || time.Since(start) < d; n++ {
		runtime.GC() // every operation starts from a collected heap
		heap.reset()
		nr, first, op, err := w.run(tr, "netsim.run", int64(n), 2)
		heap.mark()
		res.attempted++
		if err != nil || nr.String() != w.want || !conserved(nr) {
			res.failed++
		} else {
			res.tagRounds = float64(len(nr.Tags) * nr.Rounds)
		}
		res.op = append(res.op, op)
		res.first = append(res.first, first)
		if nr != nil {
			w.delivery, w.collisions = nr.DeliveryRate(), nr.CollisionFraction()
		}
	}
	res.elapsed = time.Since(start)
	res.heap = heap.close()
	return res
}

// run makes one streamed engine run, recording the gap before each
// round snapshot as a child span of the run.
func (w *netsimMetro) run(tr *tracer, name string, n int64, workers int) (res *netsim.NetResult, firstMs, opMs float64, err error) {
	t0 := time.Now()
	rid := tr.begin(name, 0, n)
	last := t0
	res, err = netsim.RunStreamOptions(context.Background(), w.sc, w.seed, netsim.StreamOptions{Workers: workers},
		func(*netsim.RoundSnapshot) error {
			now := time.Now()
			if last == t0 {
				firstMs = ms(now.Sub(t0))
			}
			tr.endAt(tr.beginAt("netsim.round_gap", rid, n, last), now)
			last = now
			return nil
		})
	tr.end(rid)
	return res, firstMs, ms(time.Since(t0)), err
}

func (w *netsimMetro) layers(res *result, spans []span) map[string]float64 {
	gaps := map[int64][]float64{}
	for _, s := range named(spans, "netsim.round_gap") {
		gaps[s.Req] = append(gaps[s.Req], s.durMs())
	}
	var first, rounds, maxes []float64
	for _, g := range gaps {
		first = append(first, g[0])
		rounds = append(rounds, g[1:]...)
		mx := 0.0
		for _, v := range g[1:] {
			mx = max(mx, v)
		}
		maxes = append(maxes, mx)
	}
	// One worker against the two the workload uses, run for run.
	var w1 []float64
	for n := 0; n < 2; n++ {
		nr, _, op, err := w.run(nil, "netsim.run_w1", int64(n), 1)
		if err == nil && nr.String() == w.want {
			w1 = append(w1, op)
		}
	}
	return map[string]float64{
		"netsim.first_snapshot_ms":  median(first),
		"netsim.round_ms_p50":       median(rounds),
		"netsim.round_ms_max":       median(maxes),
		"netsim.speedup_w2":         median(w1) / median(res.op),
		"netsim.delivery_ratio":     w.delivery,
		"netsim.collision_fraction": w.collisions,
	}
}

func (w *netsimMetro) close() {}
