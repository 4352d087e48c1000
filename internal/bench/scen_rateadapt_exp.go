package bench

import (
	"repro/internal/netsim"
	"repro/internal/trace"
)

// The closed-loop rate-adaptation scenario cells: every tag carries a
// Gauss-Markov fading channel and a rate-adaptation policy, so the
// paper's per-chunk-feedback claim (fig6 on an isolated link) is
// exercised at network scale — contention, energy, and the
// geometry-derived feedback channel all in the loop.
//
// The shared scenario puts a uniform-disc population mid-rate-table: a
// 1 W carrier over a 1e-8 W noise floor lands edge tags near 21 dB
// (between the 1x and 2x cliffs), the 2^17-sample feedback window keeps
// the backscatter feedback decodable across the cell, and the 47 µF
// capacitor absorbs the slow-rate warm-up so adaptation — not
// mortality — sets the outcome.

func rateAdaptScenario(adapter string, fadeRho float64, rounds int) netsim.Scenario {
	return netsim.Scenario{
		Name: "rateadapt", Tags: 12, Topology: netsim.TopologyUniformDisc, RadiusM: 12,
		TxPowerW: 1.0, NoiseW: 1e-8, Rho: 0.9, FeedbackSamplesPerBit: 131072,
		CapacitanceF: 47e-6, FramesPerTag: 40, MaxRounds: rounds,
		RateAdapt: netsim.RateAdaptSpec{Adapter: adapter, FadeRho: fadeRho},
	}
}

func init() {
	register(Experiment{
		ID:    "scen-rateadapt",
		Title: "Closed-loop rate adaptation at network scale: FD per-chunk vs ARF probing vs fixed",
		Run: func(cfg RunConfig) *Result {
			tbl := trace.NewTable("scen-rateadapt: policy throughput vs fading correlation",
				"fade_rho", "fd_throughput", "arf_throughput", "fixed_throughput",
				"fd_arf_delta", "fd_lag_frac", "arf_lag_frac")
			rounds := cfg.trials(600)
			cs := cfg.cells()
			for _, rho := range []float64{0, 0.9, 0.95, 0.99} {
				fdSeed := subSeed(cfg.Seed, "scen-rateadapt-fd", fbits(rho))
				arfSeed := subSeed(cfg.Seed, "scen-rateadapt-arf", fbits(rho))
				fixSeed := subSeed(cfg.Seed, "scen-rateadapt-fixed", fbits(rho))
				cs.add(func(a *Arena) row {
					fd := mustRun(rateAdaptScenario(netsim.RateAdaptFD, rho, rounds), fdSeed, 1)
					arf := mustRun(rateAdaptScenario(netsim.RateAdaptARF, rho, rounds), arfSeed, 1)
					fix := mustRun(rateAdaptScenario(netsim.RateAdaptFixed, rho, rounds), fixSeed, 1)
					return a.RowV(rho, fd.Throughput(), arf.Throughput(), fix.Throughput(),
						fd.Throughput()-arf.Throughput(),
						fd.AdaptLagFraction(), arf.AdaptLagFraction())
				})
			}
			cs.flushTo(tbl)
			return &Result{ID: "scen-rateadapt", Title: tbl.Title, Table: tbl,
				Shape: "FD per-chunk adaptation beats ARF frame probing at every fading correlation and by the widest margin under fast fades (rho 0.9): the prober only learns at frame boundaries, so its rate trails the channel (high lag fraction, rate stuck low), while per-chunk feedback tracks the fade within a frame; the fixed 1x baseline is safe but cannot exploit the deep-SNR intervals, and as coherence grows toward 0.99 ARF closes part of the gap because the channel holds still across frames."}
		},
	})

	register(Experiment{
		ID:    "scen-fading",
		Title: "Fading sweep: FD adaptation vs channel coherence on the mid-SNR deployment",
		Run: func(cfg RunConfig) *Result {
			tbl := trace.NewTable("scen-fading: FD adaptation vs fading correlation",
				"fade_rho", "throughput", "delivery", "mean_rate_mult", "lag_frac", "rate_switches", "alive_frac")
			rounds := cfg.trials(600)
			cs := cfg.cells()
			for _, rho := range []float64{0, 0.5, 0.9, 0.97, 0.995} {
				seed := subSeed(cfg.Seed, "scen-fading", fbits(rho))
				cs.add(func(a *Arena) row {
					res := mustRun(rateAdaptScenario(netsim.RateAdaptFD, rho, rounds), seed, 1)
					return a.RowV(rho, res.Throughput(), res.DeliveryRate(),
						res.MeanRateMult(), res.AdaptLagFraction(),
						res.RateSwitches, res.AliveFraction())
				})
			}
			cs.flushTo(tbl)
			return &Result{ID: "scen-fading", Title: tbl.Title, Table: tbl,
				Shape: "The rho=0 row is the static channel (highest throughput, minimal lag: the adapter climbs once and stays); introducing fading costs throughput through tags that dwell in fades, and the FD adapter's lag fraction falls as correlation grows from 0.5 toward 0.995 because a smoother channel is easier to track chunk by chunk — rate switches drop accordingly while delivery stays near 1."}
		},
	})
}
