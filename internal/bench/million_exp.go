package bench

import (
	"repro/internal/netsim"
	"repro/internal/trace"
)

// scen-million pins the struct-of-arrays engine at population scale: the
// "million" preset (8 readers, waypoint mobility, full-duplex rate
// adaptation over fading) swept across tag counts up to 2^20, run on
// both the exact engine and the analytic fast path. The table reports
// only simulation outcomes — never wall time, which would break the
// byte-identical-output contract — while the cell's wall clock is what
// the perf gate tracks through BENCH_baseline.json. Quick mode runs one
// scaled-down point so CI exercises the identical code path cheaply.

func init() {
	register(Experiment{
		ID:    "scen-million",
		Title: "Million-tag scale sweep: exact vs analytic engine on the million preset",
		Run: func(cfg RunConfig) *Result {
			tbl := trace.NewTable("scen-million: exact vs analytic engine at scale",
				"tags", "rounds", "delivery", "an_delivery", "throughput", "an_throughput", "an_ratio", "alive_frac")
			scales := []int{1 << 16, 1 << 18, 1 << 20}
			if cfg.Quick {
				scales = []int{1 << 14}
			}
			cs := cfg.cells()
			for _, n := range scales {
				seed := subSeed(cfg.Seed, "scen-million", uint64(n))
				cs.add(func(a *Arena) row {
					sc, err := netsim.Preset("million")
					if err != nil {
						panic("bench: " + err.Error())
					}
					sc.Tags = n
					exact := mustRun(sc, seed, 0)
					an := sc
					an.Analytic = true
					fast := mustRun(an, seed, 0)
					ratio := 0.0
					if exact.Throughput() > 0 {
						ratio = fast.Throughput() / exact.Throughput()
					}
					return a.RowV(n, exact.Rounds,
						exact.DeliveryRate(), fast.DeliveryRate(),
						exact.Throughput(), fast.Throughput(), ratio,
						exact.AliveFraction())
				})
			}
			cs.flushTo(tbl)
			return &Result{ID: "scen-million", Title: tbl.Title, Table: tbl,
				Shape: "Delivery holds near 1 at every scale — the preset's 4 W carrier keeps edge tags harvest-positive and full-duplex feedback drains each queue within the horizon — and the analytic delivery column tracks the exact one to within sampling noise. The analytic/exact throughput ratio sits above 1 and below ~2: the closed-form airtime is the documented optimistic bound (no abort idle, no false-ACK resync, no adaptation warm-up)."}
		},
	})
}
