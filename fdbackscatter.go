// Package fdbackscatter is a Go reproduction of "Full Duplex Backscatter"
// (HotNets-XII, 2013): a backscatter receiver transmits low-rate feedback
// while it receives, because its reflection is a slow amplitude ripple on
// a signal the transmitter already knows. The package exposes the
// system's three layers:
//
//   - the waveform-level link (Link): sample-accurate reader + battery-free
//     tag + channel, demonstrating concurrent forward data and backscatter
//     ACK/NACK with early termination;
//   - the packet-level protocols (RunProtocol and the protocol
//     constructors): full-duplex instantaneous feedback versus half-duplex
//     stop-and-wait and block-ACK at scale;
//   - the experiment harness (Experiments, RunExperiment): one runner per
//     figure/table of the evaluation.
//
// Everything is deterministic given a seed and uses only the standard
// library: experiments split into independent parameter cells that a
// worker pool can execute concurrently with byte-identical output. See
// README.md for the build instructions, the experiment index, and the
// cmd/fdbench -parallel flag.
package fdbackscatter

import (
	"context"
	"io"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/rateadapt"
	"repro/internal/simrand"
)

// Re-exported configuration and result types for the waveform link.
type (
	// LinkConfig configures a waveform-level full-duplex backscatter
	// link: modem, transmit power, distance, tag reflection and circuit
	// power, noise, optional interferer and seed. The plant is fixed:
	// 1 MHz sampling, log-distance path loss (n=2.5 at 915 MHz) without
	// fading, -20 dB TX->RX leakage removed by the reader's envelope
	// normalisation, Manchester feedback through an ideal envelope
	// detector, and the default tag harvester and storage capacitor.
	LinkConfig = core.LinkConfig
	// InterfererConfig adds a co-channel interferer to a LinkConfig.
	InterfererConfig = core.InterfererConfig
	// Link is a configured link; create with NewLink.
	Link = core.Link
	// TransferOptions tune one frame exchange.
	TransferOptions = core.TransferOptions
	// TransferResult reports one frame exchange in detail.
	TransferResult = core.TransferResult
	// ChunkReport is the per-chunk ground truth vs observation record.
	ChunkReport = core.ChunkReport
	// OOK is the forward-link modem configuration: chip oversampling
	// and modulation depth. High chips have a fixed amplitude of 1
	// before the link scales the waveform to its transmit power.
	OOK = phy.OOK
)

// NewLink builds a waveform-level link from the configuration.
func NewLink(cfg LinkConfig) (*Link, error) { return core.NewLink(cfg) }

// Packet-level protocol types.
type (
	// MACParams dimensions the packet-level protocols. Every frame
	// attempt pays a fixed 12-byte header, and each half-duplex
	// acknowledgement a fixed 16 bytes of airtime.
	MACParams = mac.Params
	// MACResult aggregates a protocol run.
	MACResult = mac.Result
	// Loss is a chunk loss process (NewIIDLoss, NewGilbertLoss,
	// NewBurstLoss).
	Loss = mac.Loss
)

// NewIIDLoss returns an independent per-chunk loss process.
func NewIIDLoss(p float64, seed uint64) Loss {
	return mac.NewIIDLoss(p, simrand.New(seed))
}

// NewGilbertLoss returns a bursty Gilbert-Elliott chunk loss process.
func NewGilbertLoss(seed uint64, pGoodToBad, pBadToGood, lossGood, lossBad float64) Loss {
	return mac.NewGilbertLoss(simrand.New(seed), pGoodToBad, pBadToGood, lossGood, lossBad)
}

// NewBurstLoss returns an interferer-style burst loss process.
func NewBurstLoss(seed uint64, startProb, meanBurstChunks, hitProb, baseLoss float64) Loss {
	return mac.NewBurstLoss(simrand.New(seed), startProb, meanBurstChunks, hitProb, baseLoss)
}

// NewFullDuplexProtocol returns the paper's protocol: per-chunk feedback
// with immediate selective retransmission and early termination. The
// returned instance reuses internal scratch across Run calls and is not
// safe for concurrent use — construct one per goroutine (the Loss
// processes it consumes are per-goroutine anyway).
func NewFullDuplexProtocol(p MACParams, seed uint64) mac.Protocol {
	return &mac.FullDuplex{P: p, Seed: seed}
}

// NewStopAndWaitProtocol returns the half-duplex whole-frame baseline.
func NewStopAndWaitProtocol(p MACParams) mac.Protocol {
	return &mac.StopAndWait{P: p}
}

// NewBlockACKProtocol returns the half-duplex selective-repeat baseline.
func NewBlockACKProtocol(p MACParams) mac.Protocol {
	return &mac.BlockACK{P: p}
}

// Rate adaptation types.
type (
	// RateSpec is one rate-table entry for adaptation experiments.
	RateSpec = rateadapt.RateSpec
	// AdaptConfig configures a rate-adaptation trace run. The rate
	// table is fixed at the four default rates (0.25x to 2x), each
	// delivered chunk carries 64 payload bytes, and feedback is
	// error-free.
	AdaptConfig = rateadapt.SimConfig
	// AdaptResult summarises a trace run.
	AdaptResult = rateadapt.TraceResult
)

// RunAdaptationTrace drives the named policy over nChunks chunk-times:
// "fd", "arf", "fixed-slow" (always the first rate) or "fixed-fast"
// (always the last). Unknown names default to "fd".
func RunAdaptationTrace(cfg AdaptConfig, policy string, nChunks int) AdaptResult {
	n := len(rateadapt.DefaultRates)
	var a rateadapt.Adapter
	switch policy {
	case "arf":
		a = rateadapt.NewARF(n)
	case "fixed-slow":
		a = &rateadapt.Fixed{Index: 0, RateName: "slow"}
	case "fixed-fast":
		a = &rateadapt.Fixed{Index: n - 1, RateName: "fast"}
	default:
		a = rateadapt.NewFullDuplex(n)
	}
	return rateadapt.RunTrace(cfg, a, nChunks)
}

// Network scenario types (the multi-tag, multi-reader scenario engine).
type (
	// Scenario declares a multi-tag deployment as data: topology,
	// RF plant, readers, mobility, traffic, MAC dimensions, and per-tag
	// energy budget.
	Scenario = netsim.Scenario
	// ReaderSpec configures a Scenario's reader population: count,
	// placement, and TDM versus independent-channel scheduling with
	// finite channel isolation.
	ReaderSpec = netsim.ReaderSpec
	// MobilitySpec configures optional seeded waypoint tag mobility.
	MobilitySpec = netsim.MobilitySpec
	// RateAdaptSpec configures optional closed-loop per-tag rate
	// adaptation over a Gauss-Markov fading channel: fixed rate, ARF
	// frame probing, or the paper's full-duplex per-chunk policy.
	RateAdaptSpec = netsim.RateAdaptSpec
	// CongestionSpec configures optional per-tag closed-loop congestion
	// control: EWMA RTT with Jacobson RTO, cubic window growth, and a
	// bounded, backed-off retransmission queue.
	CongestionSpec = netsim.CongestionSpec
	// FaultSpec configures the deterministic fault-injection layer:
	// scheduled or seed-derived reader outages, interference bursts and
	// tag churn.
	FaultSpec = netsim.FaultSpec
	// FaultEvent is one scheduled fault in a FaultSpec.
	FaultEvent = netsim.FaultEvent
	// NetResult aggregates one scenario run (per-tag and per-reader
	// outcomes plus cell-level delivery, throughput, collision and
	// energy metrics).
	NetResult = netsim.NetResult
	// NetTagStats reports one tag's outcome inside a NetResult.
	NetTagStats = netsim.TagStats
	// NetReaderStats reports one reader's outcome inside a NetResult.
	NetReaderStats = netsim.ReaderStats
	// RoundSnapshot is one round's statistics as emitted by
	// RunScenarioStream: cumulative counters, per-round deltas, and
	// per-reader saturation. cmd/fdnetd streams these as NDJSON.
	RoundSnapshot = netsim.RoundSnapshot
	// ReaderRound is one reader's slice of a RoundSnapshot.
	ReaderRound = netsim.ReaderRound
	// SnapshotSink receives RoundSnapshots during a streamed run. The
	// snapshot is reused between rounds: serialize or copy it, do not
	// retain it.
	SnapshotSink = netsim.SnapshotSink
)

// Rate-adaptation policy names for RateAdaptSpec.Adapter.
const (
	// RateAdaptFixed holds the rate nearest 1x.
	RateAdaptFixed = netsim.RateAdaptFixed
	// RateAdaptARF probes at frame granularity (half-duplex learning).
	RateAdaptARF = netsim.RateAdaptARF
	// RateAdaptFD adapts per chunk on the full-duplex feedback channel.
	RateAdaptFD = netsim.RateAdaptFD
)

// Congestion controller names for CongestionSpec.Controller.
const (
	// CongestionCubic grows the window along the cubic curve and
	// multiplicatively decreases on timeout.
	CongestionCubic = netsim.CongestionCubic
)

// Reader admission policy names for ReaderSpec.Policy.
const (
	// PolicyAloha is framed-slotted-ALOHA contention (the default).
	PolicyAloha = netsim.PolicyAloha
	// PolicyFIFO grants oldest-backlog-first, collision-free.
	PolicyFIFO = netsim.PolicyFIFO
	// PolicyPropFair grants by waiting time over accumulated service.
	PolicyPropFair = netsim.PolicyPropFair
	// PolicyDeadline is EDF with deadline-miss drops.
	PolicyDeadline = netsim.PolicyDeadline
)

// Fault kinds for FaultEvent.Kind.
const (
	// FaultReaderOutage darkens a reader for a stretch of rounds; its
	// tags re-associate to the strongest surviving carrier.
	FaultReaderOutage = netsim.FaultReaderOutage
	// FaultInterference raises a reader cell's chunk-loss probability
	// for a stretch of rounds.
	FaultInterference = netsim.FaultInterference
)

// RunScenario executes a multi-tag network scenario deterministically
// under the given seed: same scenario + seed, same result.
func RunScenario(sc Scenario, seed uint64) (*NetResult, error) {
	return netsim.Run(sc, seed)
}

// RunScenarioParallel is RunScenario with an explicit engine worker
// count (0 or negative uses all CPUs). The result is byte-identical to
// RunScenario at any worker count: sharding only changes which
// goroutine executes each reader cell and tag range, never what they
// compute or which random stream they draw.
func RunScenarioParallel(sc Scenario, seed uint64, workers int) (*NetResult, error) {
	return netsim.RunParallel(sc, seed, workers)
}

// RunScenarioStream is RunScenario with a live per-round observer: sink
// receives one RoundSnapshot per round and the run aborts early if ctx
// is cancelled or sink returns an error. The final result — and the
// sequence of snapshots — is byte-identical to RunScenario's run at the
// same seed; cmd/fdnetd builds its NDJSON streaming service on this.
func RunScenarioStream(ctx context.Context, sc Scenario, seed uint64, sink SnapshotSink) (*NetResult, error) {
	return netsim.RunStream(ctx, sc, seed, sink)
}

// ScenarioPreset returns a built-in scenario by name; ScenarioPresets
// lists the available names.
func ScenarioPreset(name string) (Scenario, error) { return netsim.Preset(name) }

// ScenarioPresets lists the built-in scenario names.
func ScenarioPresets() []string { return netsim.PresetNames() }

// LoadScenario reads a scenario from a JSON file (unknown fields are
// rejected).
func LoadScenario(path string) (Scenario, error) { return netsim.LoadScenario(path) }

// ExperimentInfo describes one reproducible figure/table.
type ExperimentInfo struct {
	ID, Title string
}

// Experiments lists every registered experiment.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range bench.List() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	return out
}

// RunExperiment executes the experiment with the given id, writing its
// table to w (text when csv is false) and returning the expected-shape
// statement. It runs serially; RunExperimentParallel spreads the
// experiment's cells over a worker pool with identical output.
func RunExperiment(id string, seed uint64, quick, csv bool, w io.Writer) (shape string, err error) {
	return RunExperimentParallel(id, seed, 1, quick, csv, w)
}

// RunExperimentParallel is RunExperiment with an explicit worker count
// for the experiment's independent parameter cells: 0 or negative uses
// all CPUs, 1 runs serially. Output is byte-identical at any worker
// count for the same seed.
func RunExperimentParallel(id string, seed uint64, workers int, quick, csv bool, w io.Writer) (shape string, err error) {
	e, err := bench.ByID(id)
	if err != nil {
		return "", err
	}
	if workers <= 0 {
		workers = bench.AutoWorkers()
	}
	res := e.Run(bench.RunConfig{Seed: seed, Quick: quick, Workers: workers})
	if csv {
		err = res.Table.WriteCSV(w)
	} else {
		err = res.Table.WriteText(w)
	}
	return res.Shape, err
}
