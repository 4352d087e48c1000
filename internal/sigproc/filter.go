package sigproc

import (
	"fmt"
	"math"
)

// MovingAverage is a streaming boxcar filter over real samples. It is the
// workhorse of both the tag's envelope smoothing and the reader's
// integrate-and-dump feedback decoder: averaging N samples improves the
// SNR of a constant level by a factor of N against white noise.
//
// The zero value is not usable; construct with NewMovingAverage.
type MovingAverage struct {
	buf  []float64
	sum  float64
	idx  int
	full bool
}

// NewMovingAverage returns a moving-average filter over a window of n
// samples. It panics if n < 1.
func NewMovingAverage(n int) *MovingAverage {
	if n < 1 {
		panic("sigproc: moving average window must be >= 1")
	}
	return &MovingAverage{buf: make([]float64, n)}
}

// Push adds a sample and returns the current window average. Before the
// window fills, the average is over the samples seen so far.
func (m *MovingAverage) Push(v float64) float64 {
	m.sum += v - m.buf[m.idx]
	m.buf[m.idx] = v
	m.idx++
	if m.idx == len(m.buf) {
		m.idx = 0
		m.full = true
	}
	n := len(m.buf)
	if !m.full {
		n = m.idx
	}
	return m.sum / float64(n)
}

// Value returns the current average without pushing a new sample.
func (m *MovingAverage) Value() float64 {
	n := len(m.buf)
	if !m.full {
		n = m.idx
		if n == 0 {
			return 0
		}
	}
	return m.sum / float64(n)
}

// Reset clears the filter state.
func (m *MovingAverage) Reset() {
	for i := range m.buf {
		m.buf[i] = 0
	}
	m.sum = 0
	m.idx = 0
	m.full = false
}

// Window returns the configured window length.
func (m *MovingAverage) Window() int { return len(m.buf) }

// SinglePoleIIR is a first-order lowpass y[n] = a*x[n] + (1-a)*y[n-1],
// modelling an RC detector filter. The coefficient a is derived from the
// -3 dB cutoff frequency relative to the sample rate.
type SinglePoleIIR struct {
	a float64
	y float64
}

// NewSinglePoleIIR returns a single-pole lowpass with the given cutoff
// frequency in Hz at the given sample rate. It panics if cutoff or
// sampleRate are not positive or cutoff >= sampleRate/2.
func NewSinglePoleIIR(cutoffHz, sampleRate float64) *SinglePoleIIR {
	if cutoffHz <= 0 || sampleRate <= 0 {
		panic("sigproc: IIR cutoff and sample rate must be positive")
	}
	if cutoffHz >= sampleRate/2 {
		panic(fmt.Sprintf("sigproc: IIR cutoff %g >= Nyquist %g", cutoffHz, sampleRate/2))
	}
	// Standard RC mapping: a = dt / (RC + dt), RC = 1/(2*pi*fc).
	dt := 1 / sampleRate
	rc := 1 / (2 * math.Pi * cutoffHz)
	return &SinglePoleIIR{a: dt / (rc + dt)}
}

// Push filters one sample and returns the output.
func (f *SinglePoleIIR) Push(x float64) float64 {
	f.y += f.a * (x - f.y)
	return f.y
}

// Value returns the current output without pushing a new sample.
func (f *SinglePoleIIR) Value() float64 { return f.y }

// Reset clears the filter state.
func (f *SinglePoleIIR) Reset() { f.y = 0 }

// FIR is a finite-impulse-response filter over complex samples.
type FIR struct {
	taps  []float64
	delay IQ
	idx   int
}

// NewFIR returns a FIR filter with the given real tap coefficients.
// It panics if no taps are supplied. The taps are copied.
func NewFIR(taps []float64) *FIR {
	if len(taps) == 0 {
		panic("sigproc: FIR needs at least one tap")
	}
	t := make([]float64, len(taps))
	copy(t, taps)
	return &FIR{taps: t, delay: make(IQ, len(taps))}
}

// Push filters one sample and returns the output.
func (f *FIR) Push(x complex128) complex128 {
	f.delay[f.idx] = x
	var acc complex128
	j := f.idx
	for _, tap := range f.taps {
		acc += f.delay[j] * complex(tap, 0)
		j--
		if j < 0 {
			j = len(f.delay) - 1
		}
	}
	f.idx++
	if f.idx == len(f.delay) {
		f.idx = 0
	}
	return acc
}

// Apply filters the whole buffer into dst (allocated if nil or short) and
// returns dst. The filter state carries across calls.
func (f *FIR) Apply(x IQ, dst IQ) IQ {
	if cap(dst) < len(x) {
		dst = make(IQ, len(x))
	}
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = f.Push(v)
	}
	return dst
}

// Reset clears the filter delay line.
func (f *FIR) Reset() {
	f.delay.Zero()
	f.idx = 0
}

// NumTaps returns the filter order plus one.
func (f *FIR) NumTaps() int { return len(f.taps) }

// LowpassTaps designs a windowed-sinc lowpass FIR with the given cutoff
// (Hz), sample rate (Hz) and tap count, using a Hamming window. The taps
// are normalised to unit DC gain. It panics on invalid arguments.
func LowpassTaps(cutoffHz, sampleRate float64, numTaps int) []float64 {
	if numTaps < 1 {
		panic("sigproc: lowpass needs at least one tap")
	}
	if cutoffHz <= 0 || cutoffHz >= sampleRate/2 {
		panic(fmt.Sprintf("sigproc: lowpass cutoff %g outside (0, %g)", cutoffHz, sampleRate/2))
	}
	fc := cutoffHz / sampleRate
	taps := make([]float64, numTaps)
	mid := float64(numTaps-1) / 2
	var sum float64
	for i := range taps {
		t := float64(i) - mid
		var s float64
		if t == 0 {
			s = 2 * fc
		} else {
			s = math.Sin(2*math.Pi*fc*t) / (math.Pi * t)
		}
		// Hamming window.
		w := 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(numTaps-1))
		if numTaps == 1 {
			w = 1
		}
		taps[i] = s * w
		sum += taps[i]
	}
	for i := range taps {
		taps[i] /= sum
	}
	return taps
}

// DCBlocker removes the DC component with a leaky differentiator:
// y[n] = x[n] - x[n-1] + r*y[n-1].
type DCBlocker struct {
	r     float64
	prevX float64
	prevY float64
}

// NewDCBlocker returns a DC blocker with pole radius r in (0, 1);
// values near 1 give a narrower notch. It panics if r is out of range.
func NewDCBlocker(r float64) *DCBlocker {
	if r <= 0 || r >= 1 {
		panic("sigproc: DC blocker pole must be in (0, 1)")
	}
	return &DCBlocker{r: r}
}

// Push filters one real sample.
func (d *DCBlocker) Push(x float64) float64 {
	y := x - d.prevX + d.r*d.prevY
	d.prevX = x
	d.prevY = y
	return y
}

// Reset clears the filter state.
func (d *DCBlocker) Reset() { d.prevX, d.prevY = 0, 0 }
