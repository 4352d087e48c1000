package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// The benchmark's definition: workloads, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repository root and
// perfbench/spec.json are both generated from these tables
// (run.py --write-spec) and checked against them (run.py --selfcheck).

const (
	wEval   = "eval-quick"
	wMetro  = "netsim-metro"
	wStream = "fdnetd-stream"
)

var allWorkloads = []string{wEval, wMetro, wStream}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Loop is "closed" (the next operation starts when the last ends)
	// or "open" (operations fall due on a schedule).
	Loop string `json:"loop"`
	// Load states the client count or the arrival rate.
	Load    string `json:"load"`
	SeedArg string `json:"seed_arg"`
	// SweepOnly marks a workload that is not in BENCHMARK.json: only the
	// traced runs of the others exercise it, for its per-layer metrics.
	SweepOnly bool `json:"sweep_only,omitempty"`
	new       func() workload
}

var workloadSpecs = []workloadSpec{
	{Name: wEval, Loop: "closed", Load: "1 client, Workers: 1",
		SeedArg: "--seed n: RunConfig.Seed = Mix64(n) of the workload",
		Why:     "the paper's evaluation regenerated: all 22 experiments serially in quick mode; PHY kernels dominate, netsim is a quarter, no netsvc",
		new:     func() workload { return &evalQuick{} }},
	{Name: wMetro, Loop: "closed", Load: "1 client, engine Workers: 2",
		SeedArg: "--seed n: engine seed = Mix64 of n",
		Why:     "million preset at 2^17 tags on 2 engine workers: per-tag set-up, SoA round loop and heap at scale; no PHY kernels, no netsvc",
		new:     func() workload { return &netsimMetro{} }},
	{Name: wStream, Loop: "open", Load: fmt.Sprintf("Poisson arrivals at %g req/s over at most %d connections", streamRate, streamConns),
		SeedArg:   "--seed n: request mix, seed pool and arrival times drawn from n",
		Why:       "fdnetd over loopback HTTP: 12 small scenarios, 1 in 8 a resume; NDJSON encoding, resume replay and round-heavy netsim; no PHY kernels",
		SweepOnly: true,
		new:       func() workload { return &fdnetdStream{} }},
}

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Desc   string  `json:"desc"`
	// Alias names the metric on each workload in the terms of the
	// workload's own headline figure, where it has one.
	Alias map[string]string `json:"alias,omitempty"`
}

var e2eSpecs = []e2eSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Desc: "median over 3 set-ups of the time from workload start to the first timed operation: inputs, reference outputs, server listening and warm-up"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Desc:  "median latency of one operation: a serial suite pass (eval-quick), one 2^17-tag engine run (netsim-metro), a request's due time to its last byte (fdnetd-stream)",
		Alias: map[string]string{wEval: "suite_s", wMetro: "tag_rounds_per_s"}},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Desc: "the same latency at the highest percentile with at least 10 samples beyond it, capped at p95 (the median below 20 samples); the percentile and sample count are printed beside it"},
	{Name: "first_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Desc: "median time to the first result: fig1's table (eval-quick), the first round snapshot (netsim-metro), a request's due time to its first complete round line (fdnetd-stream)"},
	{Name: "first_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Desc: "the time to the first result at the same percentile as op_tail_ms"},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.1,
		Desc: "median over windows (one operation; one second on fdnetd-stream) of the peak bytes held by heap objects"},
}

// move names an end-to-end metric a layer metric should move, on a
// workload.
type move struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// At is the workload whose traced run measures it; "" means every
	// traced run measures it the same way (probes, runtime counters,
	// the tracing overhead).
	At    string `json:"measured_on"`
	Moves []move `json:"moves"`
	// Still lists the workloads on which it should move nothing, either
	// because they do not run the layer or because it is a check.
	Still []string `json:"still"`
	Desc  string   `json:"desc"`
}

var (
	suiteMoves = []move{{"op_p50_ms", wEval}, {"first_p50_ms", wEval}}
	metroMoves = []move{{"op_p50_ms", wMetro}, {"first_p50_ms", wMetro}}
	noPHY      = []string{wMetro, wStream}
	gatedOnly  = []string{wEval, wMetro}
)

// probeLayer declares the ns, B/op and allocs/op metrics of one PHY
// probe, which only eval-quick runs.
func probeLayer(prefix, timeName, timeUnit, desc string, moves []move, still []string) []layerSpec {
	return []layerSpec{
		{Name: prefix + timeName, Unit: timeUnit, Better: "lower", Moves: moves, Still: still, Desc: desc},
		{Name: prefix + "_bytes_per_op", Unit: "B", Better: "lower", Moves: moves, Still: still, Desc: "heap bytes allocated per probe operation"},
		{Name: prefix + "_allocs_per_op", Unit: "count", Better: "lower", Moves: moves, Still: still, Desc: "heap allocations per probe operation"},
	}
}

func benchLayer(id string) layerSpec {
	return layerSpec{Name: "bench." + id + "_ms", Unit: "ms", Better: "lower", At: wEval,
		Moves: suiteMoves, Still: noPHY, Desc: "median self time of Experiment.Run for " + id + " in a pass"}
}

var layerSpecs = concat(
	probeLayer("simrand.fill_noise", "_ns_per_sample", "ns", "FillNoise over fig1's 10, 100 and 1000-sample bits", suiteMoves, noPHY),
	probeLayer("sigproc.envelope", "_ns_per_sample", "ns", "IQ.Envelope over fig1's 10, 100 and 1000-sample bits", suiteMoves, noPHY),
	probeLayer("reader.decode_feedback", "_ns_per_sample", "ns", "Reader.DecodeFeedbackBit over fig1's 10, 100 and 1000-sample bits", suiteMoves, noPHY),
	probeLayer("phy.frame_roundtrip", "_ns", "ns", "BuildFrame plus ParseFrame, 256-B payload, 32-B chunks", suiteMoves, noPHY),
	[]layerSpec{
		{Name: "core.transfer_frame_us", Unit: "us", Better: "lower", Moves: suiteMoves, Still: noPHY, Desc: "Link.TransferFrameInto, 256-B payload, 32-B chunks, 4 samples per chip"},
		{Name: "core.transfer_frame_bytes_per_op", Unit: "B", Better: "lower", Moves: suiteMoves, Still: noPHY, Desc: "heap bytes allocated per TransferFrameInto"},
		{Name: "core.transfer_frame_allocs", Unit: "count", Better: "lower", Moves: suiteMoves, Still: noPHY, Desc: "heap allocations per TransferFrameInto"},
		{Name: "core.delivered_ratio", Unit: "ratio", Better: "higher", Still: allWorkloads, Desc: "frames delivered over frames attempted by the TransferFrameInto probe; a move means the output changed"},
	},
	probeLayer("mac.fullduplex", "_ns_per_frame", "ns", "FullDuplex.Run of one frame with the million preset's parameters and 10% chunk loss",
		[]move{{"op_p50_ms", wEval}, {"op_p50_ms", wMetro}}, nil),
	[]layerSpec{
		benchLayer("fig1"), benchLayer("fig2"), benchLayer("fig3"), benchLayer("fig6"), benchLayer("fig7"),
		benchLayer("tab2"), benchLayer("scen-congestion"), benchLayer("scen-million"), benchLayer("abl-fbcode"), benchLayer("abl-sinorm"),
		{Name: "trace.render_ms", Unit: "ms", Better: "lower", At: wEval, Moves: suiteMoves, Still: noPHY, Desc: "Table.WriteText of all 22 tables per pass"},

		{Name: "netsim.first_snapshot_ms", Unit: "ms", Better: "lower", At: wMetro, Moves: metroMoves, Still: []string{wEval, wStream}, Desc: "RunStreamOptions call to its first sink call: per-tag set-up, placement and deriveLinks"},
		{Name: "netsim.round_ms_p50", Unit: "ms", Better: "lower", At: wMetro, Moves: metroMoves[:1], Still: []string{wEval, wStream}, Desc: "median gap between sink calls after the first"},
		{Name: "netsim.round_ms_max", Unit: "ms", Better: "lower", At: wMetro, Moves: metroMoves[:1], Still: []string{wEval, wStream}, Desc: "median over runs of the largest gap between sink calls after the first"},
		{Name: "netsim.speedup_w2", Unit: "ratio", Better: "higher", At: wMetro, Moves: metroMoves[:1], Still: []string{wEval, wStream}, Desc: "wall time of a run at 1 worker over the median at 2 workers"},
		{Name: "netsim.delivery_ratio", Unit: "ratio", Better: "higher", At: wMetro, Still: allWorkloads, Desc: "frames delivered over offered; a move means the output changed"},
		{Name: "netsim.collision_fraction", Unit: "ratio", Better: "lower", At: wMetro, Still: allWorkloads, Desc: "collision slots over non-idle slots; a move means the output changed"},

		{Name: "netsim.ns_per_tag_round", Unit: "ns", Better: "lower", At: wStream, Still: gatedOnly, Desc: "the request mix through RunStreamOptions with a no-op sink, per tag and round"},
		{Name: "netsim.replay_rounds_per_resume", Unit: "count", Better: "lower", At: wStream, Still: gatedOnly, Desc: "rounds replayed silently before a resumed stream emits"},
		{Name: "netsim.parse_validate_us", Unit: "us", Better: "lower", At: wStream, Still: gatedOnly, Desc: "ParseScenario, ApplyDefaults and Validate of one request body"},
		{Name: "netsvc.encode_ns_per_line", Unit: "ns", Better: "lower", At: wStream, Still: gatedOnly, Desc: "ReferenceStream minus no-op-sink RunStreamOptions, per NDJSON line"},
		{Name: "netsvc.bytes_per_line", Unit: "B", Better: "lower", At: wStream, Still: gatedOnly, Desc: "NDJSON bytes per line over the request mix"},
		{Name: "netsvc.http_overhead_ms", Unit: "ms", Better: "lower", At: wStream, Still: gatedOnly, Desc: "median HTTP exchange time minus ReferenceStream time for the same fresh request"},
		{Name: "netsvc.rejected", Unit: "count", Better: "lower", At: wStream, Still: []string{wEval, wMetro}, Desc: "429 answers in the traced run; each also counts as failed"},
		{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", At: wStream, Still: allWorkloads, Desc: "p99 of how late the generator sent a request after it fell due on a free connection"},
		{Name: "loadgen.in_flight_max", Unit: "count", Better: "lower", At: wStream, Still: allWorkloads, Desc: "most requests in flight at once; never above 2"},

		{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower", Moves: []move{{"op_p50_ms", wEval}, {"op_p50_ms", wMetro}}, Desc: "heap MB allocated per operation of the traced workload"},
		{Name: "runtime.gc_per_op", Unit: "count", Better: "lower", Moves: []move{{"op_p50_ms", wEval}, {"op_p50_ms", wMetro}}, Desc: "GC cycles per operation of the traced workload, not counting those forced between operations"},
		{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Still: allWorkloads, Desc: "traced over untraced op_p50_ms of the same run, minus 1"},
	},
)

func concat(parts ...[]layerSpec) []layerSpec {
	var out []layerSpec
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// runSeconds is how long one run measures.
const runSeconds = 20

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []nameWhy     `json:"workloads"`
	EndToEnd   []boundMetric `json:"end_to_end"`
	PerLayer   []plainMetric `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type plainMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specFile is perfbench/spec.json: the definition with what BENCHMARK.json
// has no room for.
type specFile struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []e2eSpec      `json:"end_to_end"`
	PerLayer  []layerSpec    `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkSpec checks names, units and that every mapping names a declared
// end-to-end metric and workload.
func checkSpec() error {
	seen := map[string]bool{}
	isWorkload, isGated := map[string]bool{}, map[string]bool{}
	isE2E := map[string]bool{}
	name := func(kind, n, unit, better string) error {
		if !nameRE.MatchString(n) || seen[n] {
			return fmt.Errorf("%s name %q is malformed or used twice", kind, n)
		}
		seen[n] = true
		if unit != "" && !unitRE.MatchString(unit) {
			return fmt.Errorf("%s %s: bad unit %q", kind, n, unit)
		}
		if unit != "" && better != "lower" && better != "higher" {
			return fmt.Errorf("%s %s: better must be lower or higher", kind, n)
		}
		return nil
	}
	for _, w := range workloadSpecs {
		if err := name("workload", w.Name, "", ""); err != nil {
			return err
		}
		if len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			return fmt.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		isWorkload[w.Name] = true
		isGated[w.Name] = !w.SweepOnly
	}
	for _, m := range e2eSpecs {
		if err := name("end-to-end metric", m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		for w := range m.Alias {
			if !isWorkload[w] {
				return fmt.Errorf("end-to-end metric %s: alias on unknown workload %s", m.Name, w)
			}
		}
		isE2E[m.Name] = true
	}
	for _, l := range layerSpecs {
		if err := name("per-layer metric", l.Name, l.Unit, l.Better); err != nil {
			return err
		}
		if l.At != "" && !isWorkload[l.At] {
			return fmt.Errorf("per-layer metric %s: measured on unknown workload %s", l.Name, l.At)
		}
		for _, mv := range l.Moves {
			if !isE2E[mv.Metric] || !isGated[mv.Workload] {
				return fmt.Errorf("per-layer metric %s: moves undeclared %s on %s", l.Name, mv.Metric, mv.Workload)
			}
		}
		for _, w := range l.Still {
			if !isWorkload[w] {
				return fmt.Errorf("per-layer metric %s: still on unknown workload %s", l.Name, w)
			}
		}
		if len(l.Moves)+len(l.Still) == 0 {
			return fmt.Errorf("per-layer metric %s: maps to nothing", l.Name)
		}
	}
	return nil
}

// writeSpec checks the definition and writes BENCHMARK.json and
// perfbench/spec.json under root.
func writeSpec(root string) error {
	if err := checkSpec(); err != nil {
		return err
	}
	bf := benchmarkFile{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadSpecs {
		if !w.SweepOnly {
			bf.Workloads = append(bf.Workloads, nameWhy{w.Name, w.Why})
		}
	}
	for _, m := range e2eSpecs {
		bf.EndToEnd = append(bf.EndToEnd, boundMetric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, l := range layerSpecs {
		bf.PerLayer = append(bf.PerLayer, plainMetric{l.Name, l.Unit, l.Better})
	}
	if err := writeJSON(filepath.Join(root, "BENCHMARK.json"), bf); err != nil {
		return err
	}
	return writeJSON(filepath.Join(root, "perfbench", "spec.json"),
		specFile{Workloads: workloadSpecs, EndToEnd: e2eSpecs, PerLayer: layerSpecs})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
