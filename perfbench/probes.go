package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mac"
	"repro/internal/netsim"
	"repro/internal/phy"
	"repro/internal/reader"
	"repro/internal/sigproc"
	"repro/internal/simrand"
)

// probeStat is one probe's cost per operation.
type probeStat struct{ ns, bytes, allocs float64 }

const probeTarget = 100 * time.Millisecond

// measureProbe times f like a Go benchmark: it doubles the iteration
// count until one batch takes probeTarget, then reports the median of
// three such batches with the allocations of the last.
func measureProbe(f func()) probeStat {
	f()
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(start) >= probeTarget/4 {
			n = int(float64(n) * float64(probeTarget) / float64(time.Since(start)+1))
			break
		}
		n *= 2
	}
	n = max(n, 1)
	var ns []float64
	var st probeStat
	for rep := 0; rep < 3; rep++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(el.Nanoseconds())/float64(n))
		st.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
		st.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
	st.ns = median(ns)
	return st
}

// fig1Bits are the samples per feedback bit fig1 sweeps.
var fig1Bits = []int{10, 100, 1000}

// probes calls the PHY and MAC kernels directly, with inputs sized as
// the workloads size them, and reports ns, B and allocs per operation.
func probes(seed uint64) (map[string]float64, error) {
	out := map[string]float64{}
	put := func(prefix, timeName string, st probeStat, perOp float64) {
		out[prefix+timeName] = st.ns / perOp
		out[prefix+"_bytes_per_op"] = st.bytes
		out[prefix+"_allocs_per_op"] = st.allocs
	}
	src := simrand.New(deriveSeed(seed, "probes"))

	// One operation covers one bit at each of fig1's three rates.
	samples := 0
	var rx, tx []sigproc.IQ
	for _, n := range fig1Bits {
		samples += n
		t := sigproc.NewIQ(n).Fill(complex(0.3, 0))
		r := t.Clone().Scale(0.1)
		src.FillNoise(r, 1e-6)
		rx, tx = append(rx, r), append(tx, t)
	}
	noise := make([]sigproc.IQ, len(fig1Bits))
	for i, n := range fig1Bits {
		noise[i] = sigproc.NewIQ(n)
	}
	put("simrand.fill_noise", "_ns_per_sample", measureProbe(func() {
		for _, x := range noise {
			src.FillNoise(x, 1e-9)
		}
	}), float64(samples))

	env := make([]float64, 0, fig1Bits[len(fig1Bits)-1])
	put("sigproc.envelope", "_ns_per_sample", measureProbe(func() {
		for _, x := range rx {
			env = x.Envelope(env[:0])
		}
	}), float64(samples))

	rd, err := reader.New(reader.Config{})
	if err != nil {
		return nil, err
	}
	put("reader.decode_feedback", "_ns_per_sample", measureProbe(func() {
		for i := range rx {
			rd.DecodeFeedbackBit(rx[i], tx[i])
		}
	}), float64(samples))

	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(src.Uint64())
	}
	wire := make([]byte, 0, 512)
	var seq uint8
	put("phy.frame_roundtrip", "_ns", measureProbe(func() {
		seq++
		wire, _ = phy.BuildFrame(phy.Header{Type: phy.FrameData, Seq: seq, ChunkSize: 32}, payload, wire[:0])
		_, _ = phy.ParseFrame(wire)
	}), 1)

	link, err := core.NewLink(core.LinkConfig{Modem: phy.OOK{SamplesPerChip: 4}, ChunkSize: 32, Seed: deriveSeed(seed, "probes/link")})
	if err != nil {
		return nil, err
	}
	var res core.TransferResult
	frames, delivered := 0, 0
	st := measureProbe(func() {
		frames++
		if link.TransferFrameInto(payload, core.TransferOptions{PadChips: 8}, &res) == nil && res.DeliveredOK {
			delivered++
		}
	})
	out["core.transfer_frame_us"] = st.ns / 1e3
	out["core.transfer_frame_bytes_per_op"] = st.bytes
	out["core.transfer_frame_allocs"] = st.allocs
	out["core.delivered_ratio"] = float64(delivered) / float64(frames)

	sc, err := netsim.Preset("million")
	if err != nil {
		return nil, err
	}
	sc.ApplyDefaults()
	fd := &mac.FullDuplex{P: mac.Params{PayloadBytes: sc.PayloadBytes, ChunkBytes: sc.ChunkBytes,
		AbortThreshold: sc.AbortThreshold, BackoffChunks: sc.BackoffChunks, MaxAttempts: sc.MaxAttempts}}
	fd.Prime()
	loss := mac.NewIIDLossUsing(0.1, simrand.New(deriveSeed(seed, "probes/loss")))
	put("mac.fullduplex", "_ns_per_frame", measureProbe(func() {
		fd.Seed++
		fd.Run(1, loss)
	}), 1)
	return out, nil
}
