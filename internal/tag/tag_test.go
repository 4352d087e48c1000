package tag

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/feedback"
	"repro/internal/phy"
	"repro/internal/sigproc"
)

func newTestTag(t *testing.T, cfg Config) *Tag {
	t.Helper()
	tg, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func TestNewDefaults(t *testing.T) {
	tg := newTestTag(t, Config{})
	if tg.Rho() != 0.3 {
		t.Fatalf("default rho = %g", tg.Rho())
	}
}

// The tag's capacitor is the documented default (100 µF, 3.3 V, 1.8 V),
// and a freshly built tag starts it full and above brown-out.
func TestDefaultCapacitorStartsFull(t *testing.T) {
	tg := newTestTag(t, Config{})
	capF, maxV := 100e-6, 3.3
	want := 0.5 * capF * maxV * maxV
	if tg.StoredEnergy() != want {
		t.Fatalf("tag starts at %g J, want the full %g J", tg.StoredEnergy(), want)
	}
	if tg.StoredEnergy() < tg.budget.Cap.MinEnergy() {
		t.Fatal("a freshly built tag must start above brown-out")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Rho: 2}); err == nil {
		t.Fatal("rho > 1 must error")
	}
}

// buildAcquireBlock renders pad + preamble + header chips at a channel
// amplitude.
func buildAcquireBlock(t *testing.T, modem phy.OOK, warmup int, hdr phy.Header, padChips int, amp float64) sigproc.IQ {
	t.Helper()
	code := &phy.FM0{}
	var wave sigproc.IQ
	wave = modem.AppendIdle(wave, padChips)
	wave = modem.AppendChips(wave, phy.DefaultPreambleChips(warmup))
	hdrBytes := hdr.AppendBinary(nil)
	bits := sigproc.BytesToBits(hdrBytes, nil)
	wave = modem.AppendChips(wave, code.Encode(bits, nil))
	return wave.ScaleReal(amp)
}

func testHeader(payloadLen int, chunkSize uint8) phy.Header {
	return phy.Header{
		Version: phy.ProtocolVersion, Type: phy.FrameData, Seq: 9,
		PayloadLen: uint16(payloadLen), Rate: 1, ChunkSize: chunkSize,
	}
}

func TestAcquireDecodesHeader(t *testing.T) {
	modem := phy.OOK{SamplesPerChip: 4}
	hdr := testHeader(64, 16)
	block := buildAcquireBlock(t, modem, 16, hdr, 12, 0.01)
	tg := newTestTag(t, Config{Modem: modem})
	states, res := tg.Acquire(block, 0, 1e6)
	if !res.OK {
		t.Fatalf("acquire failed: %+v", res)
	}
	if res.Header != hdr {
		t.Fatalf("header = %+v, want %+v", res.Header, hdr)
	}
	if res.SyncIndex != 12*4 {
		t.Fatalf("sync index = %d, want 48", res.SyncIndex)
	}
	if math.Abs(res.AmpEstimate-0.01) > 0.001 {
		t.Fatalf("amp estimate = %g", res.AmpEstimate)
	}
	// Tag must hold absorb for the whole acquisition.
	for _, s := range states {
		if s != feedback.StateAbsorb {
			t.Fatal("tag must absorb during acquisition")
		}
	}
	if !tg.Acquired() || tg.header != hdr {
		t.Fatal("acquired state not recorded")
	}
}

func TestAcquireFailsOnNoise(t *testing.T) {
	modem := phy.OOK{SamplesPerChip: 4}
	tg := newTestTag(t, Config{Modem: modem})
	// Pure idle carrier: no preamble to find.
	block := modem.AppendIdle(nil, 600)
	_, res := tg.Acquire(block, 0, 0)
	if res.OK {
		t.Fatal("acquire must fail without a preamble")
	}
	if tg.Acquired() {
		t.Fatal("tag must not claim acquisition")
	}
}

func TestAcquireFailsOnCorruptHeader(t *testing.T) {
	modem := phy.OOK{SamplesPerChip: 4}
	hdr := testHeader(16, 8)
	block := buildAcquireBlock(t, modem, 16, hdr, 4, 1)
	// Smash the header region (after preamble) to break its CRC while
	// keeping the preamble intact.
	pre := (4 + 16 + 13) * 4
	for i := pre + 8; i < pre+200; i++ {
		block[i] = 1 // constant level destroys FM0 transitions
	}
	tg := newTestTag(t, Config{Modem: modem})
	_, res := tg.Acquire(block, 0, 0)
	if res.OK {
		t.Fatal("corrupt header must not acquire")
	}
}

func TestProcessChunkPanicsUnacquired(t *testing.T) {
	tg := newTestTag(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tg.ProcessChunk(sigproc.NewIQ(16), 0, 0)
}

// buildChunkBlock renders chunk idx of a frame at channel amplitude amp,
// continuing the FM0 encoder state from the header+previous chunks the
// way the reader's contiguous encode does. For test simplicity we encode
// the whole frame and slice.
func buildFrameChips(t *testing.T, hdr phy.Header, payload []byte) []byte {
	t.Helper()
	wire, err := phy.BuildFrame(hdr, payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	code := &phy.FM0{}
	bits := sigproc.BytesToBits(wire, nil)
	return code.Encode(bits, nil)
}

func TestFullFrameChunkPipeline(t *testing.T) {
	modem := phy.OOK{SamplesPerChip: 4}
	payload := make([]byte, 48)
	for i := range payload {
		payload[i] = byte(i ^ 0x5A)
	}
	hdr := testHeader(len(payload), 16) // 3 chunks
	chips := buildFrameChips(t, hdr, payload)
	cpb := 2 // fm0
	sps := modem.SamplesPerChipN()

	// Acquire block: pad + preamble + header chips.
	hdrChips := phy.HeaderSize * 8 * cpb
	var wave sigproc.IQ
	wave = modem.AppendIdle(wave, 8)
	wave = modem.AppendChips(wave, phy.DefaultPreambleChips(16))
	wave = modem.AppendChips(wave, chips)
	const amp = 0.005
	wave.ScaleReal(amp)

	acqEnd := (8 + 16 + 13 + hdrChips) * sps
	tg := newTestTag(t, Config{Modem: modem})
	_, res := tg.Acquire(wave[:acqEnd+16], acqEnd, 1e6)
	if !res.OK {
		t.Fatalf("acquire failed: %+v", res)
	}

	// Chunk blocks follow (each 17 wire bytes; last + trailer 2 bytes).
	off := acqEnd
	var allStates [][]byte
	for i := 0; i < 3; i++ {
		wb := 17 * 8 * cpb * sps
		if i == 2 {
			wb += phy.FrameTrailerSize * 8 * cpb * sps
		}
		states := tg.ProcessChunk(wave[off:min(off+wb+16, len(wave))], wb, 1e6)
		if len(states) != wb {
			t.Fatalf("chunk %d: states len %d, want %d", i, len(states), wb)
		}
		cp := make([]byte, len(states))
		copy(cp, states)
		allStates = append(allStates, cp)
		off += wb
	}
	// All chunks clean -> all OK.
	oks := tg.ChunkResults()
	for i, ok := range oks {
		if !ok {
			t.Fatalf("chunk %d failed CRC on a clean channel", i)
		}
	}
	if !bytes.Equal(tg.Payload(), payload) {
		t.Fatal("payload not recovered")
	}
	// Chunk 0 carries the header ACK (Manchester '1': reflect then
	// absorb).
	s0 := allStates[0]
	if s0[0] != feedback.StateReflect || s0[len(s0)-1] != feedback.StateAbsorb {
		t.Fatal("header ACK must be Manchester 1 over chunk 0")
	}
	// Flush slot carries chunk 2's ACK.
	flush := tg.Flush(nil, 64, 0)
	if flush[0] != feedback.StateReflect {
		t.Fatal("flush must carry the final chunk ACK")
	}
}

func TestCorruptChunkNACKed(t *testing.T) {
	modem := phy.OOK{SamplesPerChip: 4}
	payload := make([]byte, 32)
	hdr := testHeader(len(payload), 16) // 2 chunks
	chips := buildFrameChips(t, hdr, payload)
	cpb, sps := 2, 4
	var wave sigproc.IQ
	wave = modem.AppendIdle(wave, 8)
	wave = modem.AppendChips(wave, phy.DefaultPreambleChips(16))
	wave = modem.AppendChips(wave, chips)

	acqEnd := (8 + 16 + 13 + phy.HeaderSize*8*cpb) * sps
	tg := newTestTag(t, Config{Modem: modem})
	if _, res := tg.Acquire(wave[:acqEnd+16], acqEnd, 0); !res.OK {
		t.Fatal("acquire failed")
	}
	wb := 17 * 8 * cpb * sps
	// Chunk 0: corrupt its samples (flatten a stretch -> FM0 errors).
	blk := wave[acqEnd : acqEnd+wb].Clone()
	for i := 100; i < 400; i++ {
		blk[i] = complex(0.6, 0)
	}
	tg.ProcessChunk(blk, 0, 0)
	// Chunk 1 intact (+ trailer).
	start := acqEnd + wb
	states := tg.ProcessChunk(wave[start:start+wb+phy.FrameTrailerSize*8*cpb*sps], 0, 0)
	oks := tg.ChunkResults()
	if oks[0] {
		t.Fatal("corrupted chunk 0 must fail CRC")
	}
	if !oks[1] {
		t.Fatal("clean chunk 1 must pass CRC")
	}
	// Chunk 1's block carries chunk 0's NACK: Manchester '0' = absorb
	// first half.
	if states[0] != feedback.StateAbsorb || states[len(states)-1] != feedback.StateReflect {
		t.Fatal("chunk 1 block must carry a NACK for chunk 0")
	}
}

func TestReflectWaveform(t *testing.T) {
	incident := sigproc.IQ{2, 2, 2, 2}
	states := []byte{1, 0, 1, 0}
	refl := ReflectWaveform(incident, states, 0.25, nil)
	if real(refl[0]) != 1 || refl[1] != 0 || real(refl[2]) != 1 {
		t.Fatalf("reflected = %v", refl)
	}
}

func TestReflectWaveformPanicsOnShortStates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ReflectWaveform(sigproc.NewIQ(4), []byte{1}, 0.5, nil)
}

// idealBudget is a lossless harvester feeding a 1 F capacitor charged to
// 2.5 V, joules away from both voltage limits (3.3 V and 1.8 V), so
// energy deltas are easy to read.
func idealBudget() energy.Budget {
	b := energy.Budget{
		Harvester: energy.Harvester{Efficiency: 1, SensitivityW: 0},
		Cap:       energy.Capacitor{CapacitanceF: 1},
	}
	b.Cap.SetVoltage(2.5)
	return b
}

func TestEnergyAccountingReflectCostsPower(t *testing.T) {
	mk := func(rho float64) float64 {
		tg := newTestTag(t, Config{Rho: rho})
		tg.budget = idealBudget()
		e0 := tg.StoredEnergy()
		incident := sigproc.NewIQ(1000).Fill(1) // 1 W per sample
		states := make([]byte, 1000)
		for i := range states {
			states[i] = feedback.StateReflect
		}
		tg.accountEnergy(incident, states, 1e3) // 1 s total
		return tg.StoredEnergy() - e0
	}
	quarter := mk(0.25) // reflect a quarter of the power -> harvest 0.75
	half := mk(0.5)     // reflect half -> harvest 0.5
	if quarter <= half {
		t.Fatalf("more reflection must cost harvested energy: %g vs %g", quarter, half)
	}
	if math.Abs(quarter-0.75) > 0.01 || math.Abs(half-0.5) > 0.01 {
		t.Fatalf("harvest split wrong: rho=0.25 -> %g (want 0.75), rho=0.5 -> %g (want 0.5)", quarter, half)
	}
}

func TestFlushWithIncidentAccountsEnergy(t *testing.T) {
	tg := newTestTag(t, Config{})
	tg.budget = idealBudget()
	e0 := tg.StoredEnergy()
	tg.Flush(sigproc.NewIQ(100).Fill(1), 0, 1e3)
	if tg.StoredEnergy() <= e0 {
		t.Fatal("flush with incident energy must harvest")
	}
}

func TestAcquireResetsPreviousFrame(t *testing.T) {
	modem := phy.OOK{SamplesPerChip: 4}
	hdr := testHeader(16, 16)
	block := buildAcquireBlock(t, modem, 16, hdr, 4, 1)
	tg := newTestTag(t, Config{Modem: modem})
	if _, res := tg.Acquire(block, 0, 0); !res.OK {
		t.Fatal("first acquire failed")
	}
	// Second acquire on garbage must clear the acquired flag.
	if _, res := tg.Acquire(modem.AppendIdle(nil, 400), 0, 0); res.OK {
		t.Fatal("garbage acquire must fail")
	}
	if tg.Acquired() {
		t.Fatal("failed acquire must reset state")
	}
}
