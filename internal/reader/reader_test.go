package reader

import (
	"encoding/binary"
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
	if r.cfg.SI != SINormalize || r.cfg.FeedbackCode != feedback.CodeManchester {
		t.Fatalf("zero config is not SINormalize + Manchester: %+v", r.cfg)
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

// exactHalfMeans returns the exact decoder's two Manchester half means
// for an rx block: Hypot envelope, Normalize, then the left-to-right
// mean of each half, as feedback.Config.DecodeOne computes them.
func exactHalfMeans(rx, tx sigproc.IQ) (a, b float64) {
	norm := feedback.Normalize(rx.Envelope(nil), tx.Envelope(nil), 0, nil)
	mean := func(x []float64) float64 {
		var s float64
		for _, v := range x {
			s += v
		}
		return s / float64(len(x))
	}
	half := len(norm) / 2
	return mean(norm[:half]), mean(norm[half:])
}

// A fig1-style block at bit period n: constant carrier, -20 dB leak,
// the tag's reflection in one half, complex noise of the given power.
func carrierBlock(n int, bit byte, noise float64, seed uint64) (rx, tx sigproc.IQ) {
	tx = sigproc.NewIQ(n).Fill(complex(math.Sqrt(0.1), 0))
	cfg := feedback.Config{SamplesPerBit: n, Code: feedback.CodeManchester}
	states := cfg.AppendStates(nil, []byte{bit})
	rx = make(sigproc.IQ, n)
	for i := range rx {
		rx[i] = 0.1 * tx[i]
		if states[i] == feedback.StateReflect {
			rx[i] += 1e-4 * tx[i]
		}
	}
	simrand.New(seed).FillNoise(rx, noise)
	return rx, tx
}

// Near ties: with tiny noise and one half rescaled so the fast means
// sit a chosen multiple k of the guard apart, every fast decision must
// equal DecodeFeedbackBit's bit; the fast path must decline every
// block inside the guard (k < 1 with margin for the rescale's own
// rounding) and take every block well outside it. The measured gap
// between fast and exact means must also stay inside the derived
// bound at every length, odd and even.
func TestFeedbackDecisionNearTies(t *testing.T) {
	r := newTestReader(t, Config{})
	const u = 0x1p-53
	ks := []float64{0, 0.25, 0.5, 0.9, 0.99, 1.01, 1.1, 2, 4, 16}
	taken := 0
	for _, n := range []int{2, 3, 10, 11, 100, 101, 1000, 1001} {
		for seed := uint64(0); seed < 20; seed++ {
			for _, k := range ks {
				rx, tx := carrierBlock(n, byte(seed&1), 1e-24, seed*131+uint64(n))
				txEnv := tx.Envelope(nil)
				half := n / 2
				sa, _ := halfSum(rx[:half], txEnv[:half])
				sb, _ := halfSum(rx[half:], txEnv[half:])
				a, b := sa/float64(half), sb/float64(n-half)
				guard := (float64(n) + 16) * u * (a + b)
				sign := 1.0
				if seed&2 != 0 {
					sign = -1
				}
				// Rescale the second half so b' lands at a' + sign·k·guard.
				f := (a + sign*k*guard) / b
				for i := half; i < n; i++ {
					rx[i] *= complex(f, 0)
				}
				want, _ := r.DecodeFeedbackBit(rx, tx)
				if got := r.DecideFeedbackBit(rx, tx, txEnv); got != want {
					t.Fatalf("n=%d seed=%d k=%g: fast decision %d, exact %d", n, seed, k, got, want)
				}
				_, ok := manchesterDecision(rx, txEnv)
				if ok && k <= 0.9 {
					t.Fatalf("n=%d seed=%d k=%g: fast path decided inside the guard", n, seed, k)
				}
				if !ok && k >= 1.1 {
					t.Fatalf("n=%d seed=%d k=%g: fast path declined outside the guard", n, seed, k)
				}
				if ok {
					taken++
				}
				ea, eb := exactHalfMeans(rx, tx)
				sa, _ = halfSum(rx[:half], txEnv[:half])
				sb, _ = halfSum(rx[half:], txEnv[half:])
				fa, fb := sa/float64(half), sb/float64(n-half)
				if d, bound := math.Abs(fa-ea)+math.Abs(fb-eb), (float64(n)+9.25)*u*(fa+fb); d > bound {
					t.Fatalf("n=%d seed=%d k=%g: fast/exact mean gap %g exceeds bound %g", n, seed, k, d, bound)
				}
			}
		}
	}
	if taken == 0 {
		t.Fatal("fast path never decided")
	}
}

// feedbackBlockFromBytes decodes a fuzz input into rx and tx blocks:
// each 32-byte record is one sample's rx re, rx im, tx re, tx im as
// little-endian float64 bits.
func feedbackBlockFromBytes(data []byte) (rx, tx sigproc.IQ) {
	n := len(data) / 32
	rx, tx = make(sigproc.IQ, n), make(sigproc.IQ, n)
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])) }
	for i := 0; i < n; i++ {
		rx[i] = complex(f(4*i), f(4*i+1))
		tx[i] = complex(f(4*i+2), f(4*i+3))
	}
	return rx, tx
}

func feedbackBlockBytes(rx, tx sigproc.IQ) []byte {
	var out []byte
	for i := range rx {
		for _, v := range []float64{real(rx[i]), imag(rx[i]), real(tx[i]), imag(tx[i])} {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// FuzzFeedbackDecision: DecideFeedbackBit returns DecodeFeedbackBit's
// bit for every (rx, tx) block, in every SI mode and line code. mode
// picks the configuration: bit 0 SISubtract, bit 1 NRZ.
func FuzzFeedbackDecision(f *testing.F) {
	add := func(rx, tx sigproc.IQ) {
		for mode := byte(0); mode < 4; mode++ {
			f.Add(mode, feedbackBlockBytes(rx, tx))
		}
	}
	rx, tx := carrierBlock(10, 1, 1e-9, 1)
	add(rx, tx)
	rx, tx = carrierBlock(11, 0, 1e-9, 2)
	add(rx, tx)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0x1p-1074, 0x1p-540, 1e300, 0} {
		rx, tx = carrierBlock(6, 1, 1e-9, 3)
		rx[2] = complex(v, 0)
		add(rx, tx)
		rx, tx = carrierBlock(6, 0, 1e-9, 4)
		rx[4] = complex(0, v)
		add(rx, tx)
		rx, tx = carrierBlock(6, 1, 1e-9, 5)
		tx[1] = complex(v, 0)
		add(rx, tx)
	}
	// Below Normalize's hold floor, and a carrier so strong the
	// quotients underflow.
	rx, tx = carrierBlock(8, 1, 1e-9, 6)
	tx[3] = 1e-10
	add(rx, tx)
	rx, tx = carrierBlock(8, 0, 1e-9, 7)
	tx.Fill(1e300)
	add(rx, tx)
	f.Fuzz(func(t *testing.T, mode byte, data []byte) {
		cfg := Config{}
		if mode&1 != 0 {
			cfg.SI = SISubtract
		}
		if mode&2 != 0 {
			cfg.FeedbackCode = feedback.CodeNRZ
		}
		r := newTestReader(t, cfg)
		rx, tx := feedbackBlockFromBytes(data)
		if cfg.SI == SISubtract {
			r.Calibrate(rx, tx)
		}
		want, _ := r.DecodeFeedbackBit(rx, tx)
		if got := r.DecideFeedbackBit(rx, tx, tx.Envelope(nil)); got != want {
			t.Fatalf("mode %d: fast decision %d, exact %d for rx=%v tx=%v", mode, got, want, rx, tx)
		}
	})
}

// DecideFeedbackBit is the per-bit call of every feedback BER loop:
// allocation-free on the fast path and on the exact fallback once the
// reader's scratch is sized.
func TestDecideFeedbackBitAllocFree(t *testing.T) {
	r := newTestReader(t, Config{})
	rx, tx := carrierBlock(100, 1, 1e-9, 9)
	txEnv := tx.Envelope(nil)
	tie := sigproc.NewIQ(100).Fill(0.03) // equal halves: always the fallback
	for _, c := range []struct {
		name string
		rx   sigproc.IQ
	}{{"fast", rx}, {"fallback", tie}} {
		if allocs := testing.AllocsPerRun(100, func() { r.DecideFeedbackBit(c.rx, tx, txEnv) }); allocs != 0 {
			t.Fatalf("%s: %v allocs per decision", c.name, allocs)
		}
	}
}
