package netsim

// Property tests for the closed-loop congestion controller, the reader
// scheduling policies and the fault-injection layer: invariants checked
// through the engine's round probe across scenarios and seeds, plus the
// worker-count reflection the determinism contract demands.

import (
	"fmt"
	"reflect"
	"testing"
)

// congScenarios spreads congestion-controlled configurations across
// open and closed loop, every scheduling policy, and fault hazards.
func congScenarios() []Scenario {
	return []Scenario{
		{Tags: 16, Topology: TopologyClustered, RadiusM: 8, Clusters: 3,
			OfferedLoad: 1.0, MaxRounds: 80, QueueCap: 12, CapacitanceF: 47e-6,
			Readers:    ReaderSpec{Count: 2, Placement: ReaderLine, SpacingM: 8},
			Congestion: CongestionSpec{Controller: CongestionCubic}},
		{Tags: 12, Topology: TopologyGrid, RadiusM: 6,
			FramesPerTag: 8, MaxRounds: 96, CapacitanceF: 47e-6,
			Readers:    ReaderSpec{Count: 2, Placement: ReaderGrid, SpacingM: 6, Policy: PolicyFIFO},
			Congestion: CongestionSpec{Controller: CongestionCubic, RTOMinRounds: 3, RetxCap: 4}},
		{Tags: 20, Topology: TopologyCells, RadiusM: 10, ClusterSpreadM: 2,
			OfferedLoad: 0.6, MaxRounds: 96, CapacitanceF: 47e-6,
			Readers:    ReaderSpec{Count: 4, Placement: ReaderGrid, SpacingM: 8, Policy: PolicyPropFair},
			Congestion: CongestionSpec{Controller: CongestionCubic},
			Faults:     FaultSpec{OutageRate: 0.03, InterferenceRate: 0.04, ChurnRate: 0.01}},
		{Tags: 10, Topology: TopologyUniformDisc, RadiusM: 8,
			OfferedLoad: 0.8, MaxRounds: 80, CapacitanceF: 47e-6,
			Readers:    ReaderSpec{Count: 2, Placement: ReaderLine, SpacingM: 10, Policy: PolicyDeadline, DeadlineRounds: 12},
			Congestion: CongestionSpec{Controller: CongestionCubic, JitterFrac: -1}},
	}
}

// TestCongestionWindowBounds checks the controller's hard clamps every
// round: cwnd in [1, QueueCap], RTO in [RTOMinRounds, RTOMaxRounds]
// even under zero-variance RTT, backoff within its exponent cap, and
// the retransmission queue within its bound.
func TestCongestionWindowBounds(t *testing.T) {
	for si, sc := range congScenarios() {
		for seed := uint64(1); seed <= 3; seed++ {
			var probeErr error
			check := func(e *engine, round int) {
				if probeErr != nil || e.cong == nil {
					return
				}
				c := e.cong
				for i := range c.cwnd {
					if c.cwnd[i] < 1 || c.cwnd[i] > c.queueCap {
						probeErr = fmt.Errorf("round %d tag %d: cwnd %g outside [1, %g]", round, i, c.cwnd[i], c.queueCap)
						return
					}
					if c.rto[i] < c.rtoMin || c.rto[i] > c.rtoMax {
						probeErr = fmt.Errorf("round %d tag %d: rto %g outside [%g, %g]", round, i, c.rto[i], c.rtoMin, c.rtoMax)
						return
					}
					if c.backoff[i] > c.maxBackoff {
						probeErr = fmt.Errorf("round %d tag %d: backoff %d beyond cap %d", round, i, c.backoff[i], c.maxBackoff)
						return
					}
					if c.retxQ[i] < 0 || c.retxQ[i] > c.retxCap {
						probeErr = fmt.Errorf("round %d tag %d: retx queue %d outside [0, %d]", round, i, c.retxQ[i], c.retxCap)
						return
					}
				}
			}
			if _, err := runProbed(sc, seed, check); err != nil {
				t.Fatalf("scenario %d seed %d: %v", si, seed, err)
			}
			if probeErr != nil {
				t.Fatalf("scenario %d seed %d: %v", si, seed, probeErr)
			}
		}
	}
}

// TestCongestionConservation checks that the retransmission machinery
// never double-delivers or leaks a frame: at every round's settlement,
// each tag's offered frames are exactly the delivered plus dropped plus
// the transmit-queue and retx-queue residents.
func TestCongestionConservation(t *testing.T) {
	for si, sc := range congScenarios() {
		for seed := uint64(1); seed <= 3; seed++ {
			var probeErr error
			check := func(e *engine, round int) {
				if probeErr != nil {
					return
				}
				for i := range e.tags.stats {
					ts := &e.tags.stats[i]
					held := int(e.tags.queue[i])
					if e.cong != nil {
						held += int(e.cong.retxQ[i])
					}
					if ts.FramesOffered != ts.FramesDelivered+ts.FramesDropped+held {
						probeErr = fmt.Errorf("round %d tag %d: offered %d != delivered %d + dropped %d + held %d",
							round, i, ts.FramesOffered, ts.FramesDelivered, ts.FramesDropped, held)
						return
					}
				}
			}
			res, err := runProbed(sc, seed, check)
			if err != nil {
				t.Fatalf("scenario %d seed %d: %v", si, seed, err)
			}
			if probeErr != nil {
				t.Fatalf("scenario %d seed %d: %v", si, seed, probeErr)
			}
			// The same conservation holds for the run totals, with the
			// final residuals reported through the per-reader QueueDepth.
			var held int64
			for _, rs := range res.Readers {
				held += rs.QueueDepth
			}
			if res.FramesOffered != res.FramesDelivered+res.FramesDropped+held {
				t.Fatalf("scenario %d seed %d: totals offered %d != delivered %d + dropped %d + held %d",
					si, seed, res.FramesOffered, res.FramesDelivered, res.FramesDropped, held)
			}
		}
	}
}

// TestRTOFloorUnderZeroVariance pins the Jacobson floor: a lone tag on
// a clean short link delivers every frame in one round, so the RTT
// samples are identically 1, RTTVAR decays toward zero, and without the
// clamp the RTO would collapse to the sample itself. It must instead
// hold at RTOMinRounds.
func TestRTOFloorUnderZeroVariance(t *testing.T) {
	sc := Scenario{
		Tags: 1, Topology: TopologyGrid, RadiusM: 0.5,
		OfferedLoad: 0.5, MaxRounds: 96, CapacitanceF: 47e-6,
		Congestion: CongestionSpec{Controller: CongestionCubic},
	}
	var sawSample bool
	var probeErr error
	check := func(e *engine, round int) {
		if probeErr != nil || e.cong == nil {
			return
		}
		c := e.cong
		if c.srtt[0] > 0 {
			sawSample = true
			if c.rto[0] < c.rtoMin {
				probeErr = fmt.Errorf("round %d: rto %g collapsed below floor %g (srtt %g, rttvar %g)",
					round, c.rto[0], c.rtoMin, c.srtt[0], c.rttvar[0])
			}
		}
	}
	res, err := runProbed(sc, 3, check)
	if err != nil {
		t.Fatal(err)
	}
	if probeErr != nil {
		t.Fatal(probeErr)
	}
	if !sawSample {
		t.Fatal("the lone tag never took an RTT sample; the floor was not exercised")
	}
	if res.Tags[0].SRTTRounds <= 0 || res.Tags[0].SRTTRounds > 2 {
		t.Fatalf("clean one-round service should settle SRTT near 1, got %g", res.Tags[0].SRTTRounds)
	}
}

// TestFaultOutageShardingInvariance runs the outage-retail preset — a
// scheduled reader outage with re-association, recovery, and an
// interference burst — at 1 and 8 workers and demands byte-identical
// results, plus sane fault bookkeeping: the dark reader logs exactly
// its scheduled outage rounds and the cell recovers (its tags deliver
// after the carrier returns).
func TestFaultOutageShardingInvariance(t *testing.T) {
	sc, err := Preset("outage-retail")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunParallel(sc, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunParallel(sc, 11, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("outage-retail diverged between 1 and 8 workers; fault injection broke the determinism contract")
	}
	if got := r1.Readers[1].OutageRounds; got != 40 {
		t.Fatalf("reader 1 logged %d outage rounds, want the scheduled 40", got)
	}
	if got := r1.Readers[2].InterferenceRounds; got != 24 {
		t.Fatalf("reader 2 logged %d interference rounds, want the scheduled 24", got)
	}
	if r1.Timeouts == 0 {
		t.Fatal("a 40-round outage under congestion control should fire at least one RTO")
	}
	if r1.Readers[1].FramesDelivered == 0 {
		t.Fatal("reader 1 delivered nothing; the cell never recovered from its outage")
	}
}

// TestCongestedDockShardingInvariance does the same reflection for the
// congestion showcase preset — proportional-fair polling with cubic
// windows riding the collapse knee.
func TestCongestedDockShardingInvariance(t *testing.T) {
	sc, err := Preset("congested-dock")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunParallel(sc, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	r6, err := RunParallel(sc, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r6) {
		t.Fatal("congested-dock diverged between 1 and 6 workers")
	}
	if r1.Timeouts == 0 || r1.Retransmissions == 0 {
		t.Fatalf("an overloaded dock should exercise the RTO/retx machinery (timeouts %d, retx %d)",
			r1.Timeouts, r1.Retransmissions)
	}
	if r1.MeanCwnd() <= 0 {
		t.Fatalf("mean cwnd %g must be positive with the controller on", r1.MeanCwnd())
	}
}

// TestCongestionSpecValidation exercises the orphan-field and bounds
// rejections of the new specs.
func TestCongestionSpecValidation(t *testing.T) {
	bad := []Scenario{
		{Tags: 4, Congestion: CongestionSpec{Beta: 0.5}},                                                   // orphan knob, no controller
		{Tags: 4, Congestion: CongestionSpec{Controller: "reno"}},                                          // unknown controller
		{Tags: 4, Congestion: CongestionSpec{Controller: CongestionCubic, Beta: 1.5}},                      // beta out of range
		{Tags: 4, Readers: ReaderSpec{Policy: "round-robin"}},                                              // unknown policy
		{Tags: 4, Readers: ReaderSpec{Policy: PolicyFIFO, DeadlineRounds: 8}},                              // deadline knob without deadline policy
		{Tags: 4, Faults: FaultSpec{Events: []FaultEvent{{Round: 1, Kind: "meteor"}}}},                     // unknown fault kind
		{Tags: 4, Faults: FaultSpec{Events: []FaultEvent{{Round: 0, Kind: FaultReaderOutage}}}},            // round is 1-based
		{Tags: 4, Faults: FaultSpec{Events: []FaultEvent{{Round: 1, Kind: FaultReaderOutage, Reader: 3}}}}, // reader out of range
		{Tags: 4, Faults: FaultSpec{OutageRate: 1.5}},                                                      // probability out of range
	}
	for i, sc := range bad {
		sc.ApplyDefaults()
		if err := sc.Validate(); err == nil {
			t.Fatalf("bad scenario %d validated", i)
		}
	}
}
