package bench

import (
	"repro/internal/netsim"
	"repro/internal/trace"
)

// The congestion-collapse cell: an offered-load sweep through the knee
// where a two-reader cell stops keeping up, with the closed-loop cubic
// controller on for both arms. The claim under test is the paper's
// collision-cost asymmetry compounding under collapse: a full-duplex
// reader detects a collision within AbortThreshold chunks and aborts,
// while the half-duplex stop-and-wait reader burns the whole frame
// before the missing ACK tells it anything — so as load pushes the cell
// past saturation and collisions multiply, the FD goodput advantage
// must grow monotonically.
//
// The deployment keeps ALOHA admission (collisions are the mechanism
// being measured), a deliberately tight 12-slot window so the knee sits
// inside the sweep, long 32-chunk frames so a burned half-duplex
// attempt costs something, and the fading-aisle RF calibration (strong
// carrier, 2^17-sample feedback window) so the comparison isolates the
// MAC asymmetry: feedback decodes cleanly and the 47 uF capacitor
// keeps congestion — not brown-out — setting the outcome.

func congestionScenario(protocol string, load float64, rounds int) netsim.Scenario {
	return netsim.Scenario{
		Name: "scen-congestion", Tags: 24, Topology: netsim.TopologyClustered,
		RadiusM: 8, Clusters: 3, TxPowerW: 1.0, NoiseW: 1e-8, Rho: 0.9,
		FeedbackSamplesPerBit: 131072, CapacitanceF: 47e-6,
		OfferedLoad: load, MaxRounds: rounds, QueueCap: 32, ContentionWindow: 12,
		PayloadBytes: 1024, Protocol: protocol,
		Congestion: netsim.CongestionSpec{Controller: netsim.CongestionCubic},
	}
}

func init() {
	register(Experiment{
		ID:    "scen-congestion",
		Title: "Congestion collapse under closed-loop control: FD vs HD goodput across the offered-load knee",
		Run: func(cfg RunConfig) *Result {
			tbl := trace.NewTable("scen-congestion: FD vs stop-and-wait through congestion collapse",
				"load", "fd_goodput", "hd_goodput", "fd_hd_ratio",
				"fd_collisions", "fd_timeouts", "fd_mean_cwnd")
			rounds := cfg.trials(160)
			cs := cfg.cells()
			for _, load := range []float64{0.1, 0.2, 0.35, 0.6, 1.0} {
				fdSeed := subSeed(cfg.Seed, "scen-congestion-fd", fbits(load))
				hdSeed := subSeed(cfg.Seed, "scen-congestion-hd", fbits(load))
				cs.add(func(a *Arena) row {
					fd := mustRun(congestionScenario("full-duplex", load, rounds), fdSeed, 1)
					hd := mustRun(congestionScenario("stop-and-wait", load, rounds), hdSeed, 1)
					ratio := 0.0
					if hd.Throughput() > 0 {
						ratio = fd.Throughput() / hd.Throughput()
					}
					return a.RowV(load, fd.Throughput(), hd.Throughput(), ratio,
						fd.CollisionFraction(), fd.Timeouts, fd.MeanCwnd())
				})
			}
			cs.flushTo(tbl)
			return &Result{ID: "scen-congestion", Title: tbl.Title, Table: tbl,
				Shape: "Both arms deliver comfortably at load 0.1 where the cell is idle-dominated and the FD advantage is modest; as offered load climbs through the 12-slot window's knee the collision fraction rises and the cubic controller's timeouts multiply, and the FD-over-HD goodput ratio grows monotonically — half-duplex pays a whole burned frame per collision and per timeout probe while full-duplex aborts within a few chunks, so the asymmetry compounds exactly where the network is in trouble, saturating near 2x once the cell is fully collapsed."}
		},
	})
}
