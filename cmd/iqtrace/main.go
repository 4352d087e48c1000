// Command iqtrace renders one full-duplex frame exchange at the waveform
// level and writes the reader's transmit waveform, the tag's incident
// waveform, and the reader's receive waveform (with the backscatter
// ripple) as CSV sample traces — the view a VSA/oscilloscope would give
// on the real testbed.
//
// Usage:
//
//	iqtrace -out trace.csv -payload 64 -rho 0.5
//	iqtrace -stats          # print summary only, no file
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/cmplx"
	"os"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/phy"
	"repro/internal/reader"
	"repro/internal/sigproc"
	"repro/internal/simrand"
	"repro/internal/tag"
)

func main() {
	var (
		out     = flag.String("out", "", "CSV output path (empty = stats only)")
		payload = flag.Int("payload", 64, "payload bytes")
		rho     = flag.Float64("rho", 0.3, "reflection coefficient")
		dist    = flag.Float64("dist", 2, "distance (m)")
		seed    = flag.Uint64("seed", 1, "random seed")
		stats   = flag.Bool("stats", false, "print stats only")
	)
	flag.Parse()

	modem := phy.OOK{SamplesPerChip: 4, Depth: 0.75}
	rd, err := reader.New(reader.Config{Modem: modem})
	if err != nil {
		fatal(err)
	}
	tg, err := tag.New(tag.Config{Modem: modem, Rho: *rho})
	if err != nil {
		fatal(err)
	}

	data := make([]byte, *payload)
	src := simrand.New(*seed)
	for i := range data {
		data[i] = byte(src.IntN(256))
	}
	hdr := phy.Header{Type: phy.FrameData, Seq: 1, ChunkSize: 16}
	wire, err := phy.BuildFrame(hdr, data, nil)
	if err != nil {
		fatal(err)
	}
	hdr.Version = phy.ProtocolVersion
	hdr.PayloadLen = uint16(len(data))
	wave, layout, err := rd.BuildWaveform(wire, hdr, 12)
	if err != nil {
		fatal(err)
	}
	// Propagate and run the tag phase by phase, assembling full traces.
	pl := channel.NewLogDistance(core.CarrierHz, core.PathLossExponent)
	g := pl.Gain(*dist)
	incident := wave.Clone().ScaleReal(sqrt(g))
	src.FillNoise(incident, 1e-12)

	states := make([]byte, 0, len(wave))
	margin := tg.MarginSamples()
	acqView := incident[:min(layout.AcquireEnd+margin, len(incident))]
	st, acq := tg.Acquire(acqView, layout.AcquireEnd, core.SampleRate)
	states = append(states, st...)
	if acq.OK {
		for i := 0; i < hdr.NumChunks(); i++ {
			s, e := layout.ChunkBlock(i)
			view := incident[s:min(e+margin, len(incident))]
			states = append(states, tg.ProcessChunk(view, e-s, core.SampleRate)...)
		}
		fs, fe := layout.FlushBlock()
		states = append(states, tg.Flush(incident[fs:fe], 0, core.SampleRate)...)
	} else {
		states = feedback.AppendIdleStates(states, len(wave)-len(states))
	}
	for len(states) < len(wave) {
		states = append(states, feedback.StateAbsorb)
	}

	// Reader receive chain: leak + reflection.
	refl := tag.ReflectWaveform(incident[:len(wave)], states, *rho, nil)
	rx := make(sigproc.IQ, len(wave))
	leakAmp := complex(sqrt(core.SelfLeakGain), 0)
	bwd := complex(sqrt(g), 0)
	for i := range rx {
		rx[i] = leakAmp*wave[i] + bwd*refl[i]
	}
	src.FillNoise(rx, 1e-12)

	fmt.Printf("frame: %d payload bytes, %d chunks, %d samples\n",
		*payload, hdr.NumChunks(), len(wave))
	fmt.Printf("tag acquired: %v (sync@%d amp=%.2e)\n", acq.OK, acq.SyncIndex, acq.AmpEstimate)
	if acq.OK {
		oks := tg.ChunkResults()
		good := 0
		for _, ok := range oks {
			if ok {
				good++
			}
		}
		fmt.Printf("chunks OK at tag: %d/%d\n", good, len(oks))
	}
	reflecting := 0
	for _, s := range states {
		if s == feedback.StateReflect {
			reflecting++
		}
	}
	fmt.Printf("tag reflected %.1f%% of samples\n", 100*float64(reflecting)/float64(len(states)))

	if *stats || *out == "" {
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "sample,tx_env,incident_env,rx_env,tag_state")
	for i := range wave {
		fmt.Fprintf(w, "%d,%.6e,%.6e,%.6e,%d\n",
			i, cmplx.Abs(wave[i]), cmplx.Abs(incident[i]), cmplx.Abs(rx[i]), states[i])
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d samples to %s\n", len(wave), *out)
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
