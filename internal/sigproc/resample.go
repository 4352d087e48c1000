package sigproc

import "math"

// FractionalDelay delays a buffer by a possibly non-integer number of
// samples using linear interpolation, writing into dst (allocated if nil
// or short). Samples shifted in from before the start of x are zero.
// Negative delays advance the signal. The output has the same length as
// the input.
func FractionalDelay(x IQ, delay float64, dst IQ) IQ {
	if cap(dst) < len(x) {
		dst = make(IQ, len(x))
	}
	dst = dst[:len(x)]
	for i := range dst {
		pos := float64(i) - delay
		lo := math.Floor(pos)
		frac := pos - lo
		ilo := int(lo)
		var a, b complex128
		if ilo >= 0 && ilo < len(x) {
			a = x[ilo]
		}
		if ilo+1 >= 0 && ilo+1 < len(x) {
			b = x[ilo+1]
		}
		dst[i] = a*complex(1-frac, 0) + b*complex(frac, 0)
	}
	return dst
}

// Resample converts x from one sample rate to another using linear
// interpolation. The output length is round(len(x) * outRate / inRate).
// It panics if either rate is not positive.
func Resample(x IQ, inRate, outRate float64) IQ {
	if inRate <= 0 || outRate <= 0 {
		panic("sigproc: resample rates must be positive")
	}
	out := make(IQ, int(math.Round(float64(len(x))*outRate/inRate)))
	if len(x) == 0 {
		return out
	}
	ratio := inRate / outRate
	for i := range out {
		pos := float64(i) * ratio
		lo := int(pos)
		if lo >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = x[lo]*complex(1-frac, 0) + x[lo+1]*complex(frac, 0)
	}
	return out
}

// Decimate keeps every factor-th sample of x starting at offset 0,
// writing into dst (allocated if nil or short). It panics if factor < 1.
func Decimate(x IQ, factor int, dst IQ) IQ {
	if factor < 1 {
		panic("sigproc: decimation factor must be >= 1")
	}
	n := (len(x) + factor - 1) / factor
	if cap(dst) < n {
		dst = make(IQ, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = x[i*factor]
	}
	return dst
}

// Upsample repeats each sample of x factor times (zero-order hold),
// writing into dst (allocated if nil or short). It panics if factor < 1.
func Upsample(x IQ, factor int, dst IQ) IQ {
	if factor < 1 {
		panic("sigproc: upsample factor must be >= 1")
	}
	n := len(x) * factor
	if cap(dst) < n {
		dst = make(IQ, n)
	}
	dst = dst[:n]
	for i, v := range x {
		for j := 0; j < factor; j++ {
			dst[i*factor+j] = v
		}
	}
	return dst
}
