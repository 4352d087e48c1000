// Package reader models the powered side of the link: it transmits the
// forward OOK frame from a full-duplex antenna and, while transmitting,
// decodes the tag's backscatter feedback out of its own receive chain.
//
// Self-interference handling is the part the paper gets for free: the
// reader knows its transmit envelope exactly, so it divides the received
// envelope by it (SINormalize) and the tag's reflection becomes a
// two-level ripple around a constant. The alternative SISubtract mode
// (estimate the leakage coefficient, subtract the scaled transmit signal,
// envelope the residual) is provided for the ablation benchmark.
package reader

import (
	"fmt"
	"math"

	"repro/internal/feedback"
	"repro/internal/phy"
	"repro/internal/sigproc"
)

// SIMode selects the self-interference handling strategy.
type SIMode int

// Self-interference modes.
const (
	// SINormalize divides the received envelope by the known transmit
	// envelope (the paper's approach; needs no calibration).
	SINormalize SIMode = iota
	// SISubtract estimates the leakage coefficient from a calibration
	// window and subtracts the scaled transmit waveform before envelope
	// detection.
	SISubtract
)

// String returns the mode name.
func (m SIMode) String() string {
	switch m {
	case SINormalize:
		return "normalize"
	case SISubtract:
		return "subtract"
	default:
		return fmt.Sprintf("SIMode(%d)", int(m))
	}
}

// preamble is the chip sequence every frame starts with.
var preamble = phy.DefaultPreambleChips(phy.WarmupChips)

// Config describes a reader.
type Config struct {
	// Modem is the forward-link OOK modem.
	Modem phy.OOK
	// SI selects the self-interference strategy (default SINormalize).
	SI SIMode
	// FeedbackCode is the feedback line code (default Manchester).
	FeedbackCode feedback.Code
}

// Layout maps the transmitted waveform to protocol sections, in samples.
type Layout struct {
	// PadLen is the leading idle-carrier padding.
	PadLen int
	// AcquireEnd is the end of the preamble+header section (the tag's
	// acquisition block is [0, AcquireEnd)).
	AcquireEnd int
	// ChunkEnds[i] is the end sample of chunk i's block; chunk i spans
	// [prevEnd, ChunkEnds[i]). The last chunk block includes the frame
	// trailer bytes.
	ChunkEnds []int
	// FlushEnd is the end of the trailing idle feedback-flush slot.
	FlushEnd int
}

// NumChunks returns the number of chunk blocks.
func (l Layout) NumChunks() int { return len(l.ChunkEnds) }

// ChunkBlock returns the [start, end) sample range of chunk i.
func (l Layout) ChunkBlock(i int) (int, int) {
	start := l.AcquireEnd
	if i > 0 {
		start = l.ChunkEnds[i-1]
	}
	return start, l.ChunkEnds[i]
}

// FlushBlock returns the [start, end) sample range of the flush slot.
func (l Layout) FlushBlock() (int, int) {
	if n := len(l.ChunkEnds); n > 0 {
		return l.ChunkEnds[n-1], l.FlushEnd
	}
	return l.AcquireEnd, l.FlushEnd
}

// Reader is a full-duplex reader instance. Not safe for concurrent use.
type Reader struct {
	cfg  Config
	code phy.FM0

	leakAmp float64 // SISubtract calibration

	// Scratch buffers.
	rxEnv, txEnv, normBuf, resBuf []float64
	waveBuf                       sigproc.IQ
	bitBuf, chipBuf               []byte
	chunkEnds                     []int
}

// New returns a reader with the given configuration.
func New(cfg Config) (*Reader, error) {
	r := &Reader{}
	if err := r.Reconfigure(cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// Reconfigure re-initialises the reader in place for a new
// configuration, keeping the waveform and decoder scratch of the old
// one. The result behaves exactly like New(cfg).
func (r *Reader) Reconfigure(cfg Config) error {
	r.cfg = cfg
	r.leakAmp = 0
	return nil
}

// Reset restores the reader to its post-New state (clearing the
// SISubtract leakage calibration) while keeping all internal scratch,
// so one reader can be reused across independent experiment cells
// without reallocating.
func (r *Reader) Reset() { r.leakAmp = 0 }

// Grow pre-sizes the decoder scratch for receive blocks of up to n
// samples, so a sweep that knows its largest block avoids the
// stepwise re-allocations as block sizes increase across cells.
func (r *Reader) Grow(n int) {
	if cap(r.rxEnv) < n {
		r.rxEnv = make([]float64, 0, n)
	}
	if cap(r.txEnv) < n {
		r.txEnv = make([]float64, 0, n)
	}
	if cap(r.normBuf) < n {
		r.normBuf = make([]float64, 0, n)
	}
	if cap(r.resBuf) < n {
		r.resBuf = make([]float64, 0, n)
	}
}

// BuildWaveform renders a wire-format frame into the transmit waveform
// and its section layout. padChips idle chips precede the preamble
// (randomise per frame to exercise the tag's sync); the flush slot is one
// last-chunk-block long so the tag can return the final chunk's
// feedback.
//
// The returned waveform and the layout's ChunkEnds alias reader-owned
// scratch: they are valid until the next BuildWaveform call, which
// keeps the per-frame hot path allocation-free.
func (r *Reader) BuildWaveform(wire []byte, hdr phy.Header, padChips int) (sigproc.IQ, Layout, error) {
	if padChips < 0 {
		padChips = 0
	}
	o := r.cfg.Modem
	cpb := r.code.ChipsPerBit()
	sps := o.SamplesPerChipN()
	r.code.Reset()

	wave := r.waveBuf[:0]
	wave = o.AppendIdle(wave, padChips)
	wave = o.AppendChips(wave, preamble)

	r.bitBuf = sigproc.BytesToBits(wire, r.bitBuf[:0])
	r.chipBuf = r.code.Encode(r.bitBuf, r.chipBuf[:0])
	wave = o.AppendChips(wave, r.chipBuf)

	layout := Layout{PadLen: padChips * sps}
	layout.AcquireEnd = (padChips+len(preamble)+phy.HeaderSize*8*cpb)*sps + 0
	n := hdr.NumChunks()
	if cap(r.chunkEnds) < n {
		r.chunkEnds = make([]int, n)
	}
	layout.ChunkEnds = r.chunkEnds[:n]
	for i := 0; i < n; i++ {
		_, endByte := hdr.ChunkWireRange(i)
		end := (padChips+len(preamble))*sps + endByte*8*cpb*sps
		if i == n-1 {
			// Fold the frame trailer into the last chunk block.
			end += phy.FrameTrailerSize * 8 * cpb * sps
		}
		layout.ChunkEnds[i] = end
	}
	// Flush slot: mirror the last chunk's duration (or one header length
	// for chunkless frames) of idle carrier.
	flushLen := phy.HeaderSize * 8 * cpb * sps
	if n > 0 {
		s, e := layout.ChunkBlock(n - 1)
		flushLen = e - s
	}
	wave = o.AppendIdle(wave, flushLen/sps+1)
	r.waveBuf = wave
	layout.FlushEnd = len(wave)
	if got := layout.ChunkEnds; n > 0 && got[n-1] > len(wave) {
		return nil, Layout{}, fmt.Errorf("reader: layout overruns waveform (%d > %d)", got[n-1], len(wave))
	}
	return wave, layout, nil
}

// Calibrate estimates the self-interference leakage amplitude from a
// window where the tag is known to be absorbing (e.g. the idle pad):
// leak = mean(|rx|) / mean(|tx|). Required before SISubtract decoding;
// harmless otherwise.
func (r *Reader) Calibrate(rxPad, txPad sigproc.IQ) {
	r.rxEnv = rxPad.Envelope(r.rxEnv[:0])
	r.txEnv = txPad.Envelope(r.txEnv[:0])
	rx := sigproc.MeanFloat(r.rxEnv)
	tx := sigproc.MeanFloat(r.txEnv)
	if tx > 0 {
		r.leakAmp = rx / tx
	}
}

// LeakEstimate returns the calibrated leakage amplitude (0 before
// Calibrate).
func (r *Reader) LeakEstimate() float64 { return r.leakAmp }

// DecodeFeedbackBit recovers one feedback bit from a block during which
// the tag Manchester-modulated its reflection across the whole block.
// rx is what the reader received, tx what it transmitted over the same
// samples. The margin is the achieved level separation (a confidence /
// collision-anomaly signal).
func (r *Reader) DecodeFeedbackBit(rx, tx sigproc.IQ) (bit byte, margin float64) {
	if len(rx) != len(tx) {
		panic("reader: rx/tx block length mismatch")
	}
	if r.cfg.SI == SINormalize && len(rx) >= 2 {
		r.txEnv = tx.Envelope(r.txEnv[:0])
	}
	return r.decodeExact(rx, tx, r.txEnv)
}

// decodeExact is the one exact feedback decoder behind both
// DecodeFeedbackBit and DecideFeedbackBit's fallback. txEnv must hold
// tx.Envelope's values when SI is SINormalize; SISubtract ignores it.
func (r *Reader) decodeExact(rx, tx sigproc.IQ, txEnv []float64) (bit byte, margin float64) {
	if len(rx) < 2 {
		return 0, 0
	}
	cfg := feedback.Config{SamplesPerBit: len(rx), Code: r.cfg.FeedbackCode}
	switch r.cfg.SI {
	case SISubtract:
		// Residual = rx - leak*tx; its envelope is high while the tag
		// reflects and near zero while it absorbs.
		if cap(r.resBuf) < len(rx) {
			r.resBuf = make([]float64, len(rx))
		}
		r.resBuf = r.resBuf[:len(rx)]
		l := complex(r.leakAmp, 0)
		for i := range rx {
			d := rx[i] - l*tx[i]
			r.resBuf[i] = realAbs(d)
		}
		if r.cfg.FeedbackCode == feedback.CodeNRZ {
			thr := cfg.EstimateThreshold(r.resBuf)
			return cfg.DecodeOne(r.resBuf, thr)
		}
		return cfg.DecodeOne(r.resBuf, 0)
	default: // SINormalize
		r.rxEnv = rx.Envelope(r.rxEnv[:0])
		r.normBuf = feedback.Normalize(r.rxEnv, txEnv[:len(rx)], 0, r.normBuf[:0])
		if r.cfg.FeedbackCode == feedback.CodeNRZ {
			thr := cfg.EstimateThreshold(r.normBuf)
			return cfg.DecodeOne(r.normBuf, thr)
		}
		return cfg.DecodeOne(r.normBuf, 0)
	}
}

// DecideFeedbackBit returns the bit DecodeFeedbackBit(rx, tx) would
// return, without its margin. txEnv must hold tx.Envelope's values (a
// constant carrier's envelope is computed once and reused across bits).
// SINormalize with Manchester coding first tries manchesterDecision's
// bounded-error fast path; every other mode, and every decision that
// path declines, takes the exact decoder, so the bit is identical.
//
//fdlint:noalloc
func (r *Reader) DecideFeedbackBit(rx, tx sigproc.IQ, txEnv []float64) byte {
	if len(rx) != len(tx) {
		panic("reader: rx/tx block length mismatch")
	}
	if r.cfg.SI == SINormalize && r.cfg.FeedbackCode == feedback.CodeManchester {
		if bit, ok := manchesterDecision(rx, txEnv); ok {
			return bit
		}
	}
	bit, _ := r.decodeExact(rx, tx, txEnv)
	return bit
}

// manchesterDecision decides a SINormalize Manchester bit in one fused
// pass that sums sqrt(re²+im²)/txEnv[i] over each half bit — no Hypot,
// no envelope or normalised buffers. It reports ok only when the two
// half means are farther apart than the rounding error that separates
// them from the exact decoder's means, so an ok bit is the exact bit.
//
// The bound, with u = 2⁻⁵³ the unit roundoff and sample values
// z = re + i·im, q = |z|/t per sample (t = txEnv[i] ≥ 1e-9):
//
//   - Envelope. The exact decoder's Hypot(re, im) (amd64 archHypot and
//     the pure-Go hypot compute the same M·sqrt(1+ρ²), with M and m the
//     larger and smaller of |re|, |im| and ρ = m/M) is within 3.25u of
//     |z|: u for ρ, 3u·ρ²/(1+ρ²) ≤ 1.5u plus u for 1+ρ², halved by
//     sqrt plus u, plus u for the final product. Its im == 0 branch,
//     |re|, is exact. The fast sqrt(fl(re²+im²)) is within 3u: the
//     squared magnitude p is within 4u of |z|² — u per square, u for
//     the sum, and with p ≥ 2⁻¹⁰²² (checked per sample) a subnormal
//     square's 2⁻¹⁰⁷⁵ absolute error is at most u·p each — which sqrt
//     halves to 2u, plus u for its own rounding. So the two envelopes
//     differ by at most 6.25u relative.
//   - Division. Each path rounds its quotient once more: 8.25u between
//     the two q per sample, plus 2⁻¹⁰⁷⁴ absolute if a quotient
//     underflows (t ≥ 1e-9 and p ≥ 2⁻¹⁰²² keep it finite).
//   - Sum. Both paths add the m terms of a half left to right; each
//     recursive sum of non-negative terms is within (m−1)u of the true
//     sum, so the two half sums differ by at most (2m−2+8.25)u times
//     their value (sums of subnormals are exact).
//   - Mean. Each path divides by m once more: u each, so the two half
//     means differ by at most (2m+8.25)u relative, plus 2⁻¹⁰⁷³
//     absolute from underflow.
//
// The halves hold m = n/2 and n−n/2 ≤ (n+1)/2 samples, so the exact
// means a, b and the fast ones a', b' satisfy
// |a'−a| + |b'−b| ≤ (n+9.25)u·(a'+b') + 2⁻¹⁰⁷², all terms being
// non-negative. The guard below uses (n+16)u and 2⁻¹⁰⁷⁰: the spare
// 6.75u covers the O(n²u²) second-order terms (n ≤ 2²⁰ keeps them
// below 2⁻¹²u) and the rounding of the guard's own subtraction,
// product and sum. Past the guard, a'−b' and a−b have the same strict
// sign, which is the exact decoder's decision (a > b gives 1).
//
// NaN or infinite samples fail the guard (a NaN or ∞ difference is
// never greater than the threshold), as does a squared magnitude
// below the normal range or a txEnv sample below Normalize's 1e-9
// hold floor (the exact decoder holds the previous level there).
//
//fdlint:noalloc
func manchesterDecision(rx sigproc.IQ, txEnv []float64) (bit byte, ok bool) {
	n := len(rx)
	if n < 2 || n > 1<<20 {
		return 0, false
	}
	half := n / 2
	txEnv = txEnv[:n]
	sa, oka := halfSum(rx[:half], txEnv[:half])
	sb, okb := halfSum(rx[half:], txEnv[half:])
	a := sa / float64(half)
	b := sb / float64(n-half)
	if !oka || !okb || !(math.Abs(a-b) > (float64(n)+16)*0x1p-53*(a+b)+0x1p-1070) {
		return 0, false
	}
	if a > b {
		return 1, true
	}
	return 0, true
}

// halfSum returns the left-to-right sum of sqrt(re²+im²)/env[i] over
// one half bit, and false when a sample leaves the range
// manchesterDecision's bound covers.
func halfSum(rx sigproc.IQ, env []float64) (float64, bool) {
	env = env[:len(rx)]
	var s float64
	for i, v := range rx {
		re, im := real(v), imag(v)
		p := re*re + im*im
		t := env[i]
		if !(p >= 0x1p-1022) || t < 1e-9 {
			return 0, false
		}
		s += math.Sqrt(p) / t
	}
	return s, true
}

func realAbs(v complex128) float64 {
	re, im := real(v), imag(v)
	return math.Sqrt(re*re + im*im)
}
