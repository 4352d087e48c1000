package bench

import (
	"repro/internal/netsim"
	"repro/internal/trace"
)

// The scen-* experiments exercise the multi-tag network scenario engine
// (internal/netsim): populations of tags contending under one reader,
// where the full-duplex collision detection and the energy/feedback
// trade-offs play out at network scale rather than on an isolated link.
// Each parameter point is one cell on the worker pool, and a netsim run
// is a pure function of (scenario, seed), so the sub-seed determinism of
// the harness carries over unchanged.

// mustRun executes a scenario cell on the given number of engine
// workers (<= 0: one per CPU; the result is byte-identical at any
// count, so bench output stays deterministic). Scenario errors are
// programming errors in the experiment definitions, not data-dependent
// conditions.
func mustRun(sc netsim.Scenario, seed uint64, workers int) *netsim.NetResult {
	res, err := netsim.RunParallel(sc, seed, workers)
	if err != nil {
		panic("bench: scenario cell failed: " + err.Error())
	}
	return res
}

func init() {
	register(Experiment{
		ID:    "scen-density",
		Title: "Network density sweep: cell throughput vs tag count under one reader",
		Run: func(cfg RunConfig) *Result {
			tbl := trace.NewTable("scen-density: throughput vs tag count",
				"tags", "fd_throughput", "sw_throughput", "delivery", "collision_frac", "fairness")
			rounds := cfg.trials(300)
			frames := 4
			cs := cfg.cells()
			for _, n := range []int{2, 4, 8, 16, 32, 48} {
				fdSeed := subSeed(cfg.Seed, "scen-density-fd", uint64(n))
				swSeed := subSeed(cfg.Seed, "scen-density-sw", uint64(n))
				cs.add(func(a *Arena) row {
					sc := netsim.Scenario{
						Name: "density", Tags: n, Topology: netsim.TopologyGrid,
						RadiusM: 3, FramesPerTag: frames, ContentionWindow: 16,
						MaxRounds: rounds,
					}
					fd := mustRun(sc, fdSeed, 1)
					sw := sc
					sw.Protocol = "stop-and-wait"
					hw := mustRun(sw, swSeed, 1)
					return a.RowV(n, fd.Throughput(), hw.Throughput(),
						fd.DeliveryRate(), fd.CollisionFraction(), fd.FairnessIndex())
				})
			}
			cs.flushTo(tbl)
			return &Result{ID: "scen-density", Title: tbl.Title, Table: tbl,
				Shape: "Throughput rises then saturates as the fixed contention window congests; the collision fraction grows with density, and full duplex holds its margin over stop-and-wait because collisions abort within ~2 chunks instead of burning whole frames."}
		},
	})

	register(Experiment{
		ID:    "scen-range",
		Title: "Deployment range sweep: delivery vs radius on a uniform-disc population",
		Run: func(cfg RunConfig) *Result {
			tbl := trace.NewTable("scen-range: delivery vs deployment radius",
				"radius_m", "mean_snr_db", "delivery", "throughput", "mean_outage")
			rounds := cfg.trials(120)
			cs := cfg.cells()
			for _, r := range []float64{2, 5, 10, 20, 40, 60} {
				seed := subSeed(cfg.Seed, "scen-range", fbits(r))
				cs.add(func(a *Arena) row {
					sc := netsim.Scenario{
						Name: "range", Tags: 12, Topology: netsim.TopologyUniformDisc,
						RadiusM: r, FramesPerTag: 4, MaxRounds: rounds,
					}
					res := mustRun(sc, seed, 1)
					var outage float64
					for _, t := range res.Tags {
						outage += t.OutageFraction
					}
					outage /= float64(len(res.Tags))
					return a.RowV(r, res.MeanSNRdB(), res.DeliveryRate(), res.Throughput(), outage)
				})
			}
			cs.flushTo(tbl)
			return &Result{ID: "scen-range", Title: tbl.Title, Table: tbl,
				Shape: "Delivery holds near 1 until the edge of the disc crosses the chunk-loss cliff (~45 m at default power), then collapses; mean SNR falls with the path loss exponent, and outage grows as edge tags drop below the harvester floor."}
		},
	})

	register(Experiment{
		ID:    "scen-multireader",
		Title: "Multi-reader sweep: aggregate throughput and interference vs reader count",
		Run: func(cfg RunConfig) *Result {
			tbl := trace.NewTable("scen-multireader: throughput vs reader count",
				"readers", "indep_throughput", "tdm_throughput", "indep_mean_snr_db", "tdm_mean_snr_db", "delivery", "fairness")
			rounds := cfg.trials(240)
			cs := cfg.cells()
			for _, n := range []int{1, 2, 4, 8} {
				iSeed := subSeed(cfg.Seed, "scen-multireader-indep", uint64(n))
				tSeed := subSeed(cfg.Seed, "scen-multireader-tdm", uint64(n))
				cs.add(func(a *Arena) row {
					sc := netsim.Scenario{
						Name: "multireader", Tags: 48, Topology: netsim.TopologyUniformDisc,
						RadiusM: 12, FramesPerTag: 4, MaxRounds: rounds,
						Readers: netsim.ReaderSpec{Count: n, Placement: netsim.ReaderGrid, SpacingM: 12},
					}
					indep := mustRun(sc, iSeed, 1)
					td := sc
					td.Readers.Scheduling = netsim.SchedulingTDM
					tdm := mustRun(td, tSeed, 1)
					return a.RowV(n, indep.Throughput(), tdm.Throughput(),
						indep.MeanSNRdB(), tdm.MeanSNRdB(),
						indep.DeliveryRate(), indep.FairnessIndex())
				})
			}
			cs.flushTo(tbl)
			return &Result{ID: "scen-multireader", Title: tbl.Title, Table: tbl,
				Shape: "Aggregate throughput scales with reader count under independent channels — parallel contention windows drain the same population concurrently — for as long as the added cells still cover distinct parts of the deployment, then saturates; TDM stays near the single-reader line because readers take turns. The price of parallelism shows in mean SNR, which sits below the TDM line as neighbouring carriers leak through the finite channel isolation into every tag's noise floor."}
		},
	})

	register(Experiment{
		ID:    "scen-mobility",
		Title: "Mobility sweep: delivery and fairness vs waypoint drift per epoch",
		Run: func(cfg RunConfig) *Result {
			tbl := trace.NewTable("scen-mobility: delivery vs drift step",
				"step_m", "delivery", "throughput", "fairness", "mean_snr_db", "alive_frac")
			rounds := cfg.trials(240)
			cs := cfg.cells()
			for _, step := range []float64{0, 0.5, 1, 2, 4, 8} {
				seed := subSeed(cfg.Seed, "scen-mobility", fbits(step))
				cs.add(func(a *Arena) row {
					sc := netsim.Scenario{
						Name: "mobility", Tags: 16, Topology: netsim.TopologyUniformDisc,
						RadiusM: 40, OfferedLoad: 0.4, MaxRounds: rounds,
					}
					if step > 0 {
						sc.Mobility = netsim.MobilitySpec{
							Model: netsim.MobilityWaypoint, StepM: step, EpochRounds: 4,
						}
					}
					res := mustRun(sc, seed, 1)
					return a.RowV(step, res.DeliveryRate(), res.Throughput(),
						res.FairnessIndex(), res.MeanSNRdB(), res.AliveFraction())
				})
			}
			cs.flushTo(tbl)
			return &Result{ID: "scen-mobility", Title: tbl.Title, Table: tbl,
				Shape: "Mobility is U-shaped on a 40 m disc that straddles the chunk-loss cliff: slow drift perturbs the static geometry — tags near the cliff churn across it between epochs — faster than it averages anything, so delivery and fairness first dip below the static baseline; larger steps time-average the whole disc within the horizon and recover delivery and fairness to the baseline or above, while the final-epoch mean SNR merely samples wherever the fleet stands when the horizon ends."}
		},
	})

	register(Experiment{
		ID:    "scen-energy",
		Title: "Energy sweep: tag lifetime vs offered load on a clustered deployment",
		Run: func(cfg RunConfig) *Result {
			tbl := trace.NewTable("scen-energy: tag lifetime vs offered load",
				"offered_load", "alive_frac", "mean_lifetime_frac", "delivered", "dropped")
			rounds := cfg.trials(200)
			cs := cfg.cells()
			for _, load := range []float64{0.05, 0.1, 0.25, 0.5, 1, 2} {
				seed := subSeed(cfg.Seed, "scen-energy", fbits(load))
				cs.add(func(a *Arena) row {
					sc := netsim.Scenario{
						Name: "energy", Tags: 16, Topology: netsim.TopologyClustered,
						RadiusM: 6, Clusters: 4, OfferedLoad: load, MaxRounds: rounds,
					}
					res := mustRun(sc, seed, 1)
					lifeFrac := 0.0
					if res.SimulatedS > 0 {
						lifeFrac = res.MeanLifetimeS() / res.SimulatedS
					}
					return a.RowV(load, res.AliveFraction(), lifeFrac,
						res.FramesDelivered, res.FramesDropped)
				})
			}
			cs.flushTo(tbl)
			return &Result{ID: "scen-energy", Title: tbl.Title, Table: tbl,
				Shape: "Lifetime falls with offered load: every transmission spends capacitor energy the harvest cannot fully replace, so heavily loaded tags brown out early while lightly loaded ones ride out the horizon — the network-scale face of the rho trade-off."}
		},
	})
}
