// Package tag models the battery-free backscatter tag: a two-impedance
// antenna switch (reflect/absorb), a diode envelope detector feeding a
// comparator-based decoder, an RF energy harvester with a storage
// capacitor, and the full-duplex logic that validates forward chunks as
// they arrive and backscatters per-chunk ACK/NACK while still receiving.
//
// The tag is driven in phases by the waveform link (internal/core):
// Acquire consumes the preamble+header block and locks timing; then one
// ProcessChunk call per chunk; then Flush for the trailing feedback slot.
// Each call returns the per-sample antenna states the tag held during
// that block, which the link turns into the reflected waveform the
// reader sees.
//
// Block views and margins: the incident buffer passed to Acquire and
// ProcessChunk is a VIEW of the continuous incident waveform that may
// extend up to one chip beyond the region the call emits antenna states
// for (stateLen). The margin lets the decoder absorb a residual shift of
// the chip boundaries by a sample or two: the tag measures the offset
// during preamble sync and reads each chunk's chips at that offset,
// borrowing the margin samples when the last chip straddles the block
// edge.
package tag

import (
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/feedback"
	"repro/internal/phy"
	"repro/internal/sigproc"
)

// Config describes a tag. The envelope detector is ideal, and the power
// subsystem is the default harvester and storage capacitor
// (energy.Harvester{} and energy.Capacitor{}).
type Config struct {
	// Modem must match the reader's forward-link modem.
	Modem phy.OOK
	// Rho is the reflection coefficient: fraction of incident POWER
	// re-radiated while in the reflect state. Default 0.3.
	Rho float64
	// CircuitW is the tag's continuous power consumption in watts.
	CircuitW float64
}

// minSyncCorr is the preamble detection threshold: the normalised
// correlation peak a preamble must reach.
const minSyncCorr = 0.7

// Tag is a full-duplex backscatter tag instance. Not safe for concurrent
// use.
type Tag struct {
	cfg    Config
	code   phy.FM0
	sync   *phy.PreambleDetector
	budget energy.Budget

	// Frame state.
	muted      bool
	acquired   bool
	header     phy.Header
	chipOffset int // residual sample offset of chip boundaries in chunk views
	chunkIdx   int
	chunkOK    []bool
	payload    []byte
	pendingBit int // -1 none, else 0/1 feedback bit awaiting transmission

	// Scratch buffers reused across blocks.
	envBuf    []float64
	levelBuf  []float64
	bitBuf    []byte
	byteBuf   []byte
	statesBuf []byte
}

// New returns a tag with the given configuration.
func New(cfg Config) (*Tag, error) {
	t := &Tag{}
	if err := t.Reconfigure(cfg); err != nil {
		return nil, err
	}
	return t, nil
}

// Reconfigure re-initialises the tag in place for a new configuration,
// keeping the block-sized scratch buffers of the old one (the preamble
// correlator is rebuilt only when the modem changes). The result
// behaves exactly like New(cfg): the frame machine is idle and the
// capacitor is charged to its (defaulted) maximum voltage.
func (t *Tag) Reconfigure(cfg Config) error {
	if cfg.Rho == 0 {
		cfg.Rho = 0.3
	}
	if cfg.Rho < 0 || cfg.Rho > 1 {
		return fmt.Errorf("tag: rho %g outside [0, 1]", cfg.Rho)
	}
	if t.sync == nil || t.cfg.Modem != cfg.Modem {
		t.sync = phy.NewPreambleDetector(phy.PreambleTemplate(cfg.Modem, phy.DefaultPreambleChips(phy.WarmupChips)))
	}
	t.cfg = cfg
	t.budget = energy.Budget{CircuitW: cfg.CircuitW}
	t.budget.Cap.SetVoltage(math.Inf(1)) // clamps to the voltage cap
	t.resetFrame()
	t.muted = false
	return nil
}

// Rho returns the configured reflection coefficient.
func (t *Tag) Rho() float64 { return t.cfg.Rho }

// SetMute silences (true) or re-enables (false) the tag's backscatter
// feedback transmitter. While muted the tag still decodes the forward
// link and harvests, but never reflects — the half-duplex ablation.
func (t *Tag) SetMute(m bool) { t.muted = m }

// MarginSamples returns the view margin (in samples) the link should
// extend each block by so the tag can absorb its chip-boundary offset.
func (t *Tag) MarginSamples() int { return t.cfg.Modem.SamplesPerChipN() }

// envelope computes the ideal detector output |view| into scratch.
func (t *Tag) envelope(view sigproc.IQ) []float64 {
	t.envBuf = view.Envelope(t.envBuf[:0])
	return t.envBuf
}

// accountEnergy charges the energy budget for one block given the
// antenna states held during it. Reflecting forfeits Rho of the incident
// power.
func (t *Tag) accountEnergy(incident sigproc.IQ, states []byte, sampleRate float64) {
	if sampleRate <= 0 || len(incident) == 0 {
		return
	}
	n := len(states)
	if len(incident) < n {
		n = len(incident)
	}
	var harvestable float64
	for i := 0; i < n; i++ {
		v := incident[i]
		p := real(v)*real(v) + imag(v)*imag(v)
		if states[i] == feedback.StateReflect {
			_, h := energy.SplitIncident(p, t.cfg.Rho)
			harvestable += h
		} else {
			harvestable += p
		}
	}
	dt := float64(n) / sampleRate
	t.budget.Step(harvestable/float64(n), dt)
}

// AcquireResult reports the outcome of the acquisition phase.
type AcquireResult struct {
	// OK reports whether preamble sync and header decode both succeeded.
	OK bool
	// Header is the decoded frame header when OK.
	Header phy.Header
	// SyncIndex is the sample offset of the preamble peak in the block.
	SyncIndex int
	// AmpEstimate is the estimated forward channel amplitude gain.
	AmpEstimate float64
	// ChipOffset is the residual chip-boundary offset carried into the
	// chunk blocks.
	ChipOffset int
}

// Acquire processes the view containing idle padding, preamble and
// header; stateLen is the true block length (the view may extend one
// chip beyond it). The tag holds absorb throughout (it has no timing
// yet). SampleRate (Hz) is used for energy accounting; pass 0 to skip.
func (t *Tag) Acquire(view sigproc.IQ, stateLen int, sampleRate float64) (states []byte, res AcquireResult) {
	t.resetFrame()
	if stateLen <= 0 || stateLen > len(view) {
		stateLen = len(view)
	}
	t.statesBuf = feedback.AppendIdleStates(t.statesBuf[:0], stateLen)
	states = t.statesBuf
	t.accountEnergy(view[:stateLen], states, sampleRate)

	env := t.envelope(view)
	sync, ok := t.sync.Detect(env, minSyncCorr)
	if !ok {
		return states, AcquireResult{}
	}
	amp := phy.EstimateChannelAmp(env, t.sync.Template(), sync.PeakIndex)
	// Decode the header: HeaderSize bytes of line-coded chips follow the
	// preamble.
	nChips := phy.HeaderSize * 8 * t.code.ChipsPerBit()
	t.levelBuf = t.cfg.Modem.ChipLevels(env, sync.Start, t.levelBuf[:0])
	res = AcquireResult{SyncIndex: sync.PeakIndex, AmpEstimate: amp}
	if len(t.levelBuf) < nChips {
		return states, res
	}
	t.bitBuf = t.code.Decode(t.levelBuf[:nChips], 0, t.bitBuf[:0])
	t.byteBuf = sigproc.BitsToBytes(t.bitBuf, t.byteBuf[:0])
	hdr, err := phy.ParseHeader(t.byteBuf)
	if err != nil {
		return states, res
	}
	// Residual offset of chip boundaries relative to the next block:
	// where the header's chips ended versus where the block ends.
	sps := t.cfg.Modem.SamplesPerChipN()
	off := sync.Start + nChips*sps - stateLen
	if off < 0 || off >= sps {
		off = 0
	}
	t.acquired = true
	t.header = hdr
	t.chipOffset = off
	if n := hdr.NumChunks(); cap(t.chunkOK) < n {
		t.chunkOK = make([]bool, n)
	} else {
		t.chunkOK = t.chunkOK[:n]
		for i := range t.chunkOK {
			t.chunkOK[i] = false
		}
	}
	t.payload = t.payload[:0]
	t.pendingBit = 1 // header-ACK rides on the first chunk block
	res.OK, res.Header, res.ChipOffset = true, hdr, off
	return states, res
}

// Acquired reports whether the tag locked onto a frame.
func (t *Tag) Acquired() bool { return t.acquired }

// ProcessChunk consumes the view carrying chunk index t.chunkIdx (plus
// up to one chip of margin) and returns the antenna states held during
// the block's stateLen samples: the feedback bit pending from the
// previous chunk (or the header ACK for chunk 0), Manchester coded
// across the whole block. SampleRate is for energy accounting.
//
// It panics if called before a successful Acquire or after the last
// chunk.
func (t *Tag) ProcessChunk(view sigproc.IQ, stateLen int, sampleRate float64) (states []byte) {
	if !t.acquired {
		panic("tag: ProcessChunk before successful Acquire")
	}
	if t.chunkIdx >= t.header.NumChunks() {
		panic("tag: ProcessChunk past last chunk")
	}
	if stateLen <= 0 || stateLen > len(view) {
		stateLen = len(view)
	}
	states = t.emitFeedback(stateLen)
	t.accountEnergy(view[:stateLen], states, sampleRate)

	env := t.envelope(view)
	// Antenna-mismatch penalty: while the tag reflects, only (1-rho) of
	// the incident power reaches its own detector, so the envelope it
	// decodes from is attenuated by sqrt(1-rho) over the reflect
	// samples. This is the physical cost concurrent feedback imposes on
	// the forward link (fig3's mechanism).
	att := math.Sqrt(1 - t.cfg.Rho)
	for i, st := range states {
		if st == feedback.StateReflect && i < len(env) {
			env[i] *= att
		}
	}
	t.levelBuf = t.cfg.Modem.ChipLevels(env, t.chipOffset, t.levelBuf[:0])
	t.bitBuf = t.code.Decode(t.levelBuf, 0, t.bitBuf[:0])
	chunkBytes := sigproc.BitsToBytes(t.bitBuf, t.byteBuf[:0])
	t.byteBuf = chunkBytes

	idx := t.chunkIdx
	s, e := t.header.ChunkPayloadRange(idx)
	wantLen := e - s + 1 // chunk payload + CRC byte
	ok := false
	if len(chunkBytes) >= wantLen {
		data := chunkBytes[:wantLen-1]
		crc := chunkBytes[wantLen-1]
		ok = phy.ChunkCRC(t.header.Seq, idx, data) == crc
		t.payload = append(t.payload, data...)
	} else {
		// Short decode: deliver what we have, zero-padded, and fail the
		// CRC.
		t.payload = append(t.payload, chunkBytes...)
		for i := len(chunkBytes); i < e-s; i++ {
			t.payload = append(t.payload, 0)
		}
	}
	t.chunkOK[idx] = ok
	t.chunkIdx++
	bit := 0
	if ok {
		bit = 1
	}
	t.pendingBit = bit
	return states
}

// Flush returns the antenna states for the trailing feedback slot of n
// samples, carrying the final chunk's ACK/NACK. SampleRate is for energy
// accounting; the incident block may be nil when the caller does its own
// accounting.
func (t *Tag) Flush(incident sigproc.IQ, n int, sampleRate float64) (states []byte) {
	if len(incident) > 0 {
		n = len(incident)
	}
	states = t.emitFeedback(n)
	if len(incident) > 0 {
		t.accountEnergy(incident, states, sampleRate)
	}
	return states
}

// emitFeedback renders the pending feedback bit (if any) over a block of
// n samples, Manchester coded, and clears it.
func (t *Tag) emitFeedback(n int) []byte {
	t.statesBuf = t.statesBuf[:0]
	if t.muted {
		t.pendingBit = -1
		t.statesBuf = feedback.AppendIdleStates(t.statesBuf, n)
		return t.statesBuf
	}
	if t.pendingBit < 0 || n < 2 {
		t.statesBuf = feedback.AppendIdleStates(t.statesBuf, n)
		return t.statesBuf
	}
	cfg := feedback.Config{SamplesPerBit: n, Code: feedback.CodeManchester}
	t.statesBuf = cfg.AppendStates(t.statesBuf, []byte{byte(t.pendingBit)})
	t.pendingBit = -1
	return t.statesBuf
}

// ChunkResults returns the per-chunk CRC outcomes recorded so far.
func (t *Tag) ChunkResults() []bool {
	out := make([]bool, len(t.chunkOK))
	copy(out, t.chunkOK)
	return out
}

// ChunkResultsView returns the per-chunk CRC outcomes recorded so far
// as a view of the tag's internal state: valid only until the next
// Acquire, and not to be mutated. The allocation-free form of
// ChunkResults for per-frame loops.
func (t *Tag) ChunkResultsView() []bool { return t.chunkOK }

// ChunksExpected returns the number of chunks the tag's decoded header
// announces (which differs from the transmitted frame when a corrupted
// header slipped past its CRC-8). Zero before a successful Acquire.
func (t *Tag) ChunksExpected() int {
	if !t.acquired {
		return 0
	}
	return t.header.NumChunks()
}

// Payload returns the payload bytes recovered so far (possibly corrupt
// in chunks whose CRC failed).
func (t *Tag) Payload() []byte {
	out := make([]byte, len(t.payload))
	copy(out, t.payload)
	return out
}

// PayloadView returns the recovered payload as a view of the tag's
// internal buffer: valid only until the next Acquire, and not to be
// mutated. The allocation-free form of Payload for per-frame loops.
func (t *Tag) PayloadView() []byte { return t.payload }

// HarvestedOutageFraction reports the fraction of accounted time the tag
// spent browned out.
func (t *Tag) HarvestedOutageFraction() float64 { return t.budget.OutageFraction() }

// StoredEnergy returns the capacitor energy in joules.
func (t *Tag) StoredEnergy() float64 { return t.budget.Cap.Energy() }

// resetFrame clears per-frame state.
func (t *Tag) resetFrame() {
	t.acquired = false
	t.header = phy.Header{}
	t.chipOffset = 0
	t.chunkIdx = 0
	t.chunkOK = t.chunkOK[:0]
	t.payload = t.payload[:0]
	t.pendingBit = -1
}

// ReflectWaveform converts antenna states plus the physical incident
// waveform into the wave the tag re-radiates: sqrt(rho) * incident where
// reflecting, zero where absorbing. Written into dst (allocated if nil
// or short).
func ReflectWaveform(incident sigproc.IQ, states []byte, rho float64, dst sigproc.IQ) sigproc.IQ {
	if len(states) < len(incident) {
		panic("tag: states shorter than incident block")
	}
	if cap(dst) < len(incident) {
		dst = make(sigproc.IQ, len(incident))
	}
	dst = dst[:len(incident)]
	amp := complex(math.Sqrt(rho), 0)
	for i, v := range incident {
		if states[i] == feedback.StateReflect {
			dst[i] = v * amp
		} else {
			dst[i] = 0
		}
	}
	return dst
}
