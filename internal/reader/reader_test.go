package reader

import (
	"math"
	"testing"

	"repro/internal/feedback"
	"repro/internal/phy"
	"repro/internal/sigproc"
	"repro/internal/simrand"
)

func newTestReader(t *testing.T, cfg Config) *Reader {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewDefaults(t *testing.T) {
	r := newTestReader(t, Config{})
	if r.cfg.WarmupChips != 16 {
		t.Fatalf("defaults not applied: %+v", r.cfg)
	}
}

func buildTestFrame(t *testing.T, payloadLen int, chunkSize uint8) (phy.Header, []byte) {
	t.Helper()
	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	hdr := phy.Header{Type: phy.FrameData, Seq: 5, ChunkSize: chunkSize}
	wire, err := phy.BuildFrame(hdr, payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	hdr.Version = phy.ProtocolVersion
	hdr.PayloadLen = uint16(payloadLen)
	return hdr, wire
}

func TestBuildWaveformLayout(t *testing.T) {
	r := newTestReader(t, Config{Modem: phy.OOK{SamplesPerChip: 4}})
	hdr, wire := buildTestFrame(t, 32, 8) // 4 chunks
	wave, layout, err := r.BuildWaveform(wire, hdr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if layout.NumChunks() != 4 {
		t.Fatalf("chunks = %d", layout.NumChunks())
	}
	if layout.PadLen != 40 {
		t.Fatalf("pad = %d samples", layout.PadLen)
	}
	// Monotone, within waveform.
	prev := layout.AcquireEnd
	if prev <= layout.PadLen {
		t.Fatal("acquire must extend past the pad")
	}
	for i, e := range layout.ChunkEnds {
		if e <= prev {
			t.Fatalf("chunk %d end %d not after %d", i, e, prev)
		}
		prev = e
	}
	if layout.FlushEnd != len(wave) {
		t.Fatalf("flush end %d != waveform %d", layout.FlushEnd, len(wave))
	}
	// Chunk blocks tile the region between acquire and last chunk.
	s0, e0 := layout.ChunkBlock(0)
	if s0 != layout.AcquireEnd || e0 != layout.ChunkEnds[0] {
		t.Fatalf("chunk 0 block = (%d,%d)", s0, e0)
	}
	s3, _ := layout.ChunkBlock(3)
	if s3 != layout.ChunkEnds[2] {
		t.Fatal("chunk 3 must start at chunk 2's end")
	}
	fs, fe := layout.FlushBlock()
	if fs != layout.ChunkEnds[3] || fe != layout.FlushEnd {
		t.Fatalf("flush block = (%d,%d)", fs, fe)
	}
}

func TestBuildWaveformChunkSamplesMatchBytes(t *testing.T) {
	r := newTestReader(t, Config{Modem: phy.OOK{SamplesPerChip: 4}})
	hdr, wire := buildTestFrame(t, 24, 8) // 3 chunks of 8+1 bytes
	_, layout, err := r.BuildWaveform(wire, hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 0 and 1 blocks have identical lengths (same wire bytes).
	s0, e0 := layout.ChunkBlock(0)
	s1, e1 := layout.ChunkBlock(1)
	if e0-s0 != e1-s1 {
		t.Fatalf("equal chunks with different block sizes: %d vs %d", e0-s0, e1-s1)
	}
	// 9 wire bytes * 8 bits * 2 chips (fm0) * 4 sps = 576 samples.
	if e0-s0 != 576 {
		t.Fatalf("chunk block = %d samples, want 576", e0-s0)
	}
}

func TestBuildWaveformNegativePadClamps(t *testing.T) {
	r := newTestReader(t, Config{Modem: phy.OOK{SamplesPerChip: 2}})
	hdr, wire := buildTestFrame(t, 8, 8)
	_, layout, err := r.BuildWaveform(wire, hdr, -5)
	if err != nil {
		t.Fatal(err)
	}
	if layout.PadLen != 0 {
		t.Fatal("negative pad must clamp to 0")
	}
}

func TestFlushBlockChunkless(t *testing.T) {
	r := newTestReader(t, Config{Modem: phy.OOK{SamplesPerChip: 2}})
	hdr, wire := buildTestFrame(t, 0, 8)
	_, layout, err := r.BuildWaveform(wire, hdr, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs, fe := layout.FlushBlock()
	if fs != layout.AcquireEnd || fe <= fs {
		t.Fatalf("chunkless flush block = (%d,%d)", fs, fe)
	}
}

func TestCalibrate(t *testing.T) {
	r := newTestReader(t, Config{})
	tx := sigproc.NewIQ(100).Fill(2)
	rx := sigproc.NewIQ(100).Fill(complex(0.2, 0)) // leak amp 0.1
	r.Calibrate(rx, tx)
	if math.Abs(r.LeakEstimate()-0.1) > 1e-12 {
		t.Fatalf("leak = %g, want 0.1", r.LeakEstimate())
	}
	// Zero tx: estimate unchanged.
	before := r.LeakEstimate()
	r.Calibrate(rx, sigproc.NewIQ(100))
	if r.LeakEstimate() != before {
		t.Fatal("zero-tx calibration must not update")
	}
}

// synthFeedbackBlock builds rx/tx blocks where the tag Manchester-encodes
// one bit over the whole block: rx = leak*tx + refl*state*tx + noise.
func synthFeedbackBlock(n int, bit byte, leak, refl, noise float64, seed uint64) (rx, tx sigproc.IQ) {
	src := simrand.New(seed)
	tx = make(sigproc.IQ, n)
	for i := range tx {
		// OOK-ish transmit envelope: alternate high/low chips of 4.
		amp := 1.0
		if (i/4)%2 == 1 {
			amp = 0.25
		}
		tx[i] = complex(amp, 0)
	}
	cfg := feedback.Config{SamplesPerBit: n, Code: feedback.CodeManchester}
	states := cfg.AppendStates(nil, []byte{bit})
	rx = make(sigproc.IQ, n)
	for i := range rx {
		v := complex(leak, 0) * tx[i]
		if states[i] == feedback.StateReflect {
			v += complex(refl, 0) * tx[i]
		}
		rx[i] = v
	}
	src.FillNoise(rx, noise)
	return rx, tx
}

func TestDecodeFeedbackBitNormalize(t *testing.T) {
	r := newTestReader(t, Config{})
	for _, bit := range []byte{0, 1} {
		rx, tx := synthFeedbackBlock(512, bit, 0.1, 0.02, 1e-6, uint64(bit)+1)
		got, margin := r.DecodeFeedbackBit(rx, tx)
		if got != bit {
			t.Fatalf("bit %d decoded as %d", bit, got)
		}
		if margin <= 0 {
			t.Fatalf("margin = %g, want positive", margin)
		}
	}
}

func TestDecodeFeedbackBitSubtract(t *testing.T) {
	r := newTestReader(t, Config{SI: SISubtract})
	// Calibrate on an absorb-only window.
	txCal := sigproc.NewIQ(256).Fill(1)
	rxCal := txCal.Clone().Scale(0.1)
	r.Calibrate(rxCal, txCal)
	for _, bit := range []byte{0, 1} {
		rx, tx := synthFeedbackBlock(512, bit, 0.1, 0.02, 1e-7, uint64(bit)+7)
		got, _ := r.DecodeFeedbackBit(rx, tx)
		if got != bit {
			t.Fatalf("subtract mode: bit %d decoded as %d", bit, got)
		}
	}
}

func TestDecodeFeedbackNoisyAveraging(t *testing.T) {
	r := newTestReader(t, Config{})
	src := simrand.New(3)
	errs := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		bit := src.Bit()
		rx, tx := synthFeedbackBlock(2048, bit, 0.1, 0.01, 1e-3, uint64(i)+100)
		got, _ := r.DecodeFeedbackBit(rx, tx)
		if got != bit {
			errs++
		}
	}
	if errs > 2 {
		t.Fatalf("feedback errors %d/%d with heavy averaging", errs, trials)
	}
}

func TestDecodeFeedbackBitPanicsOnMismatch(t *testing.T) {
	r := newTestReader(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.DecodeFeedbackBit(sigproc.NewIQ(4), sigproc.NewIQ(8))
}

func TestDecodeFeedbackBitTinyBlock(t *testing.T) {
	r := newTestReader(t, Config{})
	bit, margin := r.DecodeFeedbackBit(sigproc.NewIQ(1), sigproc.NewIQ(1))
	if bit != 0 || margin != 0 {
		t.Fatal("single-sample block must return zeros")
	}
}

func TestDecodeFeedbackNRZMode(t *testing.T) {
	r := newTestReader(t, Config{FeedbackCode: feedback.CodeNRZ})
	// NRZ over a block needs both levels for threshold estimation; use a
	// block with a known half-and-half pilot shape by decoding a
	// Manchester-shaped block as NRZ halves. Instead, simply verify the
	// call path returns without panic and with a defined bit.
	rx, tx := synthFeedbackBlock(256, 1, 0.1, 0.05, 0, 42)
	bit, _ := r.DecodeFeedbackBit(rx, tx)
	_ = bit // value depends on threshold estimate; path coverage only
}

func TestSIModeString(t *testing.T) {
	if SINormalize.String() != "normalize" || SISubtract.String() != "subtract" || SIMode(7).String() == "" {
		t.Fatal("SIMode.String broken")
	}
}
