// Package feedback implements the backscatter feedback channel that makes
// the link full duplex: while the reader's forward transmission is in
// flight, the tag toggles its antenna between reflecting and absorbing at
// a rate far below the forward chip rate. At the reader the reflection
// appears as a slow amplitude ripple on top of a signal the reader knows
// exactly — its own transmission — so dividing the received envelope by
// the known transmit envelope and integrating over a feedback bit
// recovers the tag's bit with no self-interference cancellation hardware.
//
// The package provides both sides: the tag's state sequencing (which
// samples reflect) and the reader's normalise/integrate/slice decoder,
// plus the closed-form BER predictions the experiments compare against.
package feedback

import (
	"fmt"
	"math"
)

// Code selects the feedback line code.
type Code int

// Feedback line codes. Manchester is the default: each bit spends half
// its period reflecting and half absorbing, so the decoder compares the
// two halves and needs no amplitude threshold. NRZ doubles the averaging
// window per decision but requires threshold tracking (the ablation in
// BenchmarkAblationFeedbackCode quantifies the trade).
const (
	CodeManchester Code = iota
	CodeNRZ
)

// String returns the code name.
func (c Code) String() string {
	switch c {
	case CodeManchester:
		return "manchester"
	case CodeNRZ:
		return "nrz"
	default:
		return fmt.Sprintf("Code(%d)", int(c))
	}
}

// StateReflect and StateAbsorb are the tag antenna states, one per
// forward-rate sample.
const (
	StateAbsorb  byte = 0
	StateReflect byte = 1
)

// Config describes one feedback channel instance.
type Config struct {
	// SamplesPerBit is the number of forward-link samples spanned by one
	// feedback bit. Large values trade rate for SNR gain (the averaging
	// factor). Must be >= 2 for Manchester.
	SamplesPerBit int
	// Code is the feedback line code.
	Code Code
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SamplesPerBit < 1 {
		return fmt.Errorf("feedback: SamplesPerBit must be >= 1, got %d", c.SamplesPerBit)
	}
	if c.Code == CodeManchester && c.SamplesPerBit < 2 {
		return fmt.Errorf("feedback: Manchester needs SamplesPerBit >= 2")
	}
	if c.Code != CodeManchester && c.Code != CodeNRZ {
		return fmt.Errorf("feedback: unknown code %d", int(c.Code))
	}
	return nil
}

// BitsPerSecond returns the feedback data rate at the given forward
// sample rate.
func (c Config) BitsPerSecond(sampleRate float64) float64 {
	if c.SamplesPerBit <= 0 {
		return 0
	}
	return sampleRate / float64(c.SamplesPerBit)
}

// AppendStates appends the per-sample antenna states for the given
// feedback bits to dst and returns it. Each bit occupies SamplesPerBit
// samples.
func (c Config) AppendStates(dst []byte, bits []byte) []byte {
	n := c.SamplesPerBit
	switch c.Code {
	case CodeNRZ:
		for _, b := range bits {
			s := StateAbsorb
			if b&1 == 1 {
				s = StateReflect
			}
			for i := 0; i < n; i++ {
				dst = append(dst, s)
			}
		}
	case CodeManchester:
		half := n / 2
		for _, b := range bits {
			first, second := StateAbsorb, StateReflect
			if b&1 == 1 {
				first, second = StateReflect, StateAbsorb
			}
			for i := 0; i < half; i++ {
				dst = append(dst, first)
			}
			for i := half; i < n; i++ {
				dst = append(dst, second)
			}
		}
	}
	return dst
}

// AppendIdleStates appends n absorb states (no feedback transmission;
// the tag harvests everything).
func AppendIdleStates(dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, StateAbsorb)
	}
	return dst
}

// Normalize divides the received envelope by the known transmit envelope
// sample-by-sample, writing into dst (allocated if nil or short). Samples
// where the transmit envelope is below floor are copied from the previous
// normalised value (hold) to avoid noise blow-up; floor <= 0 uses 1e-9.
// This is the self-interference handling step: the reader's own signal
// becomes the unit level, and the tag's reflection rides on top of it.
func Normalize(rxEnv, txEnv []float64, floor float64, dst []float64) []float64 {
	if len(rxEnv) != len(txEnv) {
		panic(fmt.Sprintf("feedback: Normalize length mismatch %d != %d", len(rxEnv), len(txEnv)))
	}
	if cap(dst) < len(rxEnv) {
		dst = make([]float64, len(rxEnv))
	}
	dst = dst[:len(rxEnv)]
	if floor <= 0 {
		floor = 1e-9
	}
	prev := 0.0
	for i := range rxEnv {
		if txEnv[i] < floor {
			dst[i] = prev
			continue
		}
		dst[i] = rxEnv[i] / txEnv[i]
		prev = dst[i]
	}
	return dst
}

// DecodeOne decodes a single feedback bit from exactly one bit period of
// normalised samples. It returns the bit and a soft decision margin
// (positive = confident); the margin is the level separation achieved in
// this bit, used by collision detectors as an anomaly signal.
func (c Config) DecodeOne(norm []float64, threshold float64) (bit byte, margin float64) {
	n := c.SamplesPerBit
	if len(norm) < n {
		return 0, 0
	}
	switch c.Code {
	case CodeNRZ:
		m := meanOf(norm[:n])
		if m > threshold {
			return 1, m - threshold
		}
		return 0, threshold - m
	case CodeManchester:
		half := n / 2
		a := meanOf(norm[:half])
		b := meanOf(norm[half:n])
		if a > b {
			return 1, a - b
		}
		return 0, b - a
	}
	return 0, 0
}

func meanOf(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// EstimateThreshold derives an NRZ slicing threshold from a training
// region known to contain both states (e.g. the tag's pilot pattern):
// the midpoint of the observed min/max of per-half-bit means.
func (c Config) EstimateThreshold(norm []float64) float64 {
	n := c.SamplesPerBit / 2
	if n < 1 {
		n = 1
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i+n <= len(norm); i += n {
		m := meanOf(norm[i : i+n])
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	if math.IsInf(lo, 1) {
		return 0
	}
	return (lo + hi) / 2
}

// SNREstimate estimates the feedback-channel SNR from a normalised
// stream and the bits that were decoded from it: it reconstructs the two
// class means and returns separation^2 / (4 * within-class variance),
// i.e. the per-sample detection SNR. Returns 0 when a class is missing.
func (c Config) SNREstimate(norm []float64, bits []byte) float64 {
	n := c.SamplesPerBit
	var sum [2]float64
	var sumSq [2]float64
	var cnt [2]int
	for i, b := range bits {
		start := i * n
		if start+n > len(norm) {
			break
		}
		seg := norm[start : start+n]
		for j, v := range seg {
			cls := int(b & 1)
			if c.Code == CodeManchester {
				// First half carries the bit state, second the inverse.
				if j < n/2 {
					cls = int(b & 1)
				} else {
					cls = int(b&1) ^ 1
				}
			}
			sum[cls] += v
			sumSq[cls] += v * v
			cnt[cls]++
		}
	}
	if cnt[0] == 0 || cnt[1] == 0 {
		return 0
	}
	m0 := sum[0] / float64(cnt[0])
	m1 := sum[1] / float64(cnt[1])
	v0 := sumSq[0]/float64(cnt[0]) - m0*m0
	v1 := sumSq[1]/float64(cnt[1]) - m1*m1
	v := (v0 + v1) / 2
	if v <= 0 {
		return math.Inf(1)
	}
	d := m1 - m0
	return d * d / (4 * v)
}

// QFunc is the Gaussian tail probability Q(x) = P(N(0,1) > x).
func QFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// TheoreticalBER predicts the feedback bit error rate for a level
// separation delta (normalised units), per-sample noise standard
// deviation sigma, and an averaging window of nAvg samples per decision:
// BER = Q(delta / (2*sigma/sqrt(nAvg))). For Manchester the effective
// nAvg is half the bit period per level but the decision variable is the
// difference of two averages, which lands at the same expression with
// nAvg = SamplesPerBit/2 halves combined; pass the per-decision averaging
// count you actually use.
func TheoreticalBER(delta, sigma float64, nAvg int) float64 {
	if delta <= 0 || nAvg < 1 {
		return 0.5
	}
	if sigma <= 0 {
		return 0
	}
	return QFunc(delta / 2 / (sigma / math.Sqrt(float64(nAvg))))
}

// ManchesterBER predicts the BER of the Manchester decoder, whose
// decision variable is the difference of two independent half-bit
// averages: variance 2*sigma^2/(n/2), separation delta.
func ManchesterBER(delta, sigma float64, samplesPerBit int) float64 {
	if delta <= 0 || samplesPerBit < 2 {
		return 0.5
	}
	if sigma <= 0 {
		return 0
	}
	half := float64(samplesPerBit / 2)
	sd := sigma * math.Sqrt(2/half)
	return QFunc(delta / sd)
}
