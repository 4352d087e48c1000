// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every output against a reference made outside
// the timed region, and prints its metrics, the last line being one JSON
// object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) record spans around every call into a layer, write them to
// --out, and report the per-layer metrics. Build and run it through
// perfbench/run.py from the repository root; see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/simrand"
)

// workload is one benchmark workload.
type workload interface {
	// setUp builds the inputs from seed, the reference outputs the
	// checks compare against, and warms up.
	setUp(seed uint64) error
	// measure runs operations until d has passed and at least minOps
	// have run, recording spans into tr when it is non-nil.
	measure(d time.Duration, minOps int, tr *tracer) *result
	// layers derives the workload's own per-layer metrics from a traced
	// measure and its spans.
	layers(res *result, spans []span) map[string]float64
	close()
}

// result is what one measure call saw.
type result struct {
	attempted, failed int
	op, first         []float64 // ms per operation
	heap              []float64 // peak heap MB per window
	elapsed           time.Duration
	unit              string  // what one operation is, for the printed lines
	tagRounds         float64 // tags x rounds one operation simulates (netsim-metro)
}

const setUpReps = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+fmt.Sprint(allWorkloads))
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for span files")
		spec    = flag.String("spec", "", "write BENCHMARK.json and perfbench/spec.json under this directory and exit")
	)
	flag.Parse()
	if *spec != "" {
		if err := writeSpec(*spec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	ws, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, allWorkloads)
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var line outcome
	var err error
	if *traced == 1 {
		line, err = runTraced(ws, *seed, d, *out)
	} else {
		line, err = runUntraced(ws, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of the output.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// deriveSeed gives each use of the workload seed its own stream.
func deriveSeed(seed uint64, use string) uint64 {
	h := simrand.Mix64(seed)
	for i := 0; i < len(use); i++ {
		h = simrand.Mix64(h ^ uint64(use[i]))
	}
	return h
}

// setUp builds the workload reps times, keeping the last, and returns
// it with the median set-up time.
func setUp(ws workloadSpec, seed uint64, reps int) (workload, float64, error) {
	var times []float64
	var w workload
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		w = ws.new()
		if err := w.setUp(seed); err != nil {
			w.close()
			return nil, 0, fmt.Errorf("%s: set-up: %w", ws.Name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return w, median(times), nil
}

func runUntraced(ws workloadSpec, seed uint64, d time.Duration) (outcome, error) {
	w, setupS, err := setUp(ws, seed, setUpReps)
	if err != nil {
		return outcome{}, err
	}
	defer w.close()
	res := w.measure(d, 1, nil)
	opTail, opPct := tail(res.op)
	firstTail, firstPct := tail(res.first)
	vals := map[string]float64{
		"setup_s":       setupS,
		"op_p50_ms":     median(res.op),
		"op_tail_ms":    opTail,
		"first_p50_ms":  median(res.first),
		"first_tail_ms": firstTail,
		"peak_heap_mb":  median(res.heap),
	}
	n := len(res.op)
	notes := map[string]string{
		"setup_s":       fmt.Sprintf("median of %d set-ups", setUpReps),
		"op_p50_ms":     fmt.Sprintf("p50 of %d %s", n, res.unit),
		"op_tail_ms":    fmt.Sprintf("p%.1f of %d %s", opPct, n, res.unit),
		"first_p50_ms":  fmt.Sprintf("p50 of %d", len(res.first)),
		"first_tail_ms": fmt.Sprintf("p%.1f of %d", firstPct, len(res.first)),
		"peak_heap_mb":  fmt.Sprintf("p50 of %d windows", len(res.heap)),
	}
	fmt.Printf("workload %s seed %d: %d attempted, %d failed in %.2f s\n", ws.Name, seed, res.attempted, res.failed, res.elapsed.Seconds())
	o := outcome{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, m := range e2eSpecs {
		o.Metrics[m.Name] = value{vals[m.Name], m.Unit}
		fmt.Printf("%-16s %14.4f %-6s %s\n", m.Name, vals[m.Name], m.Unit, notes[m.Name])
	}
	for _, a := range aliases(ws.Name, vals, res) {
		fmt.Printf("  %-16s %14.4f %-6s %s\n", a.name, a.v, a.unit, a.note)
	}
	return o, nil
}

type alias struct {
	name string
	v    float64
	unit string
	note string
}

// aliases restates the end-to-end metrics in each workload's own terms.
func aliases(name string, vals map[string]float64, res *result) []alias {
	failedFrac := float64(res.failed) / float64(max(res.attempted, 1))
	out := []alias{{"failed_frac", failedFrac, "ratio", "failed over attempted; also the result line's failed count"}}
	switch name {
	case wEval:
		out = append(out, alias{"suite_s", vals["op_p50_ms"] / 1e3, "s", "= op_p50_ms"})
	case wMetro:
		out = append(out, alias{"tag_rounds_per_s", res.tagRounds / (vals["op_p50_ms"] / 1e3), "1/s",
			fmt.Sprintf("%.0f tag-rounds per run / op_p50_ms", res.tagRounds)})
	case wStream:
		out = append(out,
			alias{"ttfb_p50_ms", vals["first_p50_ms"], "ms", "= first_p50_ms"},
			alias{"ttfb_tail_ms", vals["first_tail_ms"], "ms", "= first_tail_ms"},
			alias{"stream_p50_ms", vals["op_p50_ms"], "ms", "= op_p50_ms"},
			alias{"stream_tail_ms", vals["op_tail_ms"], "ms", "= op_tail_ms"})
	}
	return out
}

// sweepOps is how many operations a traced run makes of each workload
// other than its own, so that every per-layer metric is reported. The
// fdnetd-stream count visits each of its 12 scenarios resumeEvery times,
// so the last visit of each is a resume.
var sweepOps = map[string]int{wEval: 2, wMetro: 3, wStream: 12 * resumeEvery}

func runTraced(ws workloadSpec, seed uint64, d time.Duration, outDir string) (outcome, error) {
	w, _, err := setUp(ws, seed, 1)
	if err != nil {
		return outcome{}, err
	}
	defer w.close()

	// An untraced stretch first, so the run states its own overhead.
	plain := w.measure(d/4, 1, nil)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr := newTracer()
	res := w.measure(d, 1, tr)
	runtime.ReadMemStats(&m1)
	spans := tr.finish()
	path := spanPath(outDir, ws.Name, seed, "")
	if err := writeSpans(path, spans); err != nil {
		return outcome{}, err
	}

	layers := w.layers(res, spans)
	ops := float64(max(res.attempted, 1))
	layers["runtime.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / ops
	// Not counting the collections eval-quick and netsim-metro force
	// between operations.
	layers["runtime.gc_per_op"] = float64((m1.NumGC-m1.NumForcedGC)-(m0.NumGC-m0.NumForcedGC)) / ops
	overhead := (median(res.op)/median(plain.op) - 1) * 100
	layers["trace.overhead_pct"] = overhead
	attempted := plain.attempted + res.attempted
	failed := plain.failed + res.failed

	// The layers of the other workloads, from a few traced operations each.
	for _, other := range workloadSpecs {
		if other.Name == ws.Name {
			continue
		}
		o := other.new()
		if err := o.setUp(seed); err != nil {
			o.close()
			return outcome{}, fmt.Errorf("%s: set-up: %w", other.Name, err)
		}
		otr := newTracer()
		ores := o.measure(0, sweepOps[other.Name], otr)
		ospans := otr.finish()
		if err := writeSpans(spanPath(outDir, ws.Name, seed, other.Name), ospans); err != nil {
			o.close()
			return outcome{}, err
		}
		for k, v := range o.layers(ores, ospans) {
			layers[k] = v
		}
		attempted += ores.attempted
		failed += ores.failed
		o.close()
	}
	probed, err := probes(seed)
	if err != nil {
		return outcome{}, fmt.Errorf("probes: %w", err)
	}
	for k, v := range probed {
		layers[k] = v
	}

	fmt.Printf("workload %s seed %d traced: %d attempted, %d failed; %d spans in %s\n", ws.Name, seed, attempted, failed, len(spans), path)
	fmt.Printf("tracing overhead: op_p50_ms %.4f traced vs %.4f untraced (%+.2f%%)\n", median(res.op), median(plain.op), overhead)
	o := outcome{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, l := range layerSpecs {
		v, ok := layers[l.Name]
		if !ok {
			return outcome{}, fmt.Errorf("per-layer metric %s was not measured", l.Name)
		}
		o.Metrics[l.Name] = value{v, l.Unit}
		fmt.Printf("%-40s %14.4f %s\n", l.Name, v, l.Unit)
	}
	return o, nil
}

// spanPath names the span file of a traced run, or of its sweep over
// another workload.
func spanPath(outDir, name string, seed uint64, sweep string) string {
	if sweep != "" {
		name += "-sweep-" + sweep
	}
	return filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
}
