package sigproc

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT computes the in-place radix-2 decimation-in-time FFT of x.
// The length of x must be a power of two; FFT panics otherwise.
func FFT(x IQ) {
	fftDir(x, false)
}

// IFFT computes the in-place inverse FFT of x (including the 1/N scale).
// The length of x must be a power of two; IFFT panics otherwise.
func IFFT(x IQ) {
	fftDir(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

func fftDir(x IQ, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("sigproc: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	if n == 1 {
		return
	}
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		wstep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wstep
			}
		}
	}
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// PowerSpectrum returns the power spectrum |FFT(x)|^2 / N of the buffer,
// zero-padding to the next power of two. The input is not modified.
func PowerSpectrum(x IQ) []float64 {
	work := make(IQ, NextPow2(len(x)))
	copy(work, x)
	FFT(work)
	ps := make([]float64, len(work))
	scale := 1 / float64(len(work))
	for i, v := range work {
		ps[i] = (real(v)*real(v) + imag(v)*imag(v)) * scale
	}
	return ps
}

// Goertzel computes the power of x at the single DFT bin closest to
// freqHz for the given sample rate. It is O(N) and avoids the full FFT
// when only one tone matters (e.g. detecting a backscatter subcarrier).
func Goertzel(x IQ, freqHz, sampleRate float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	k := math.Round(freqHz / sampleRate * float64(n))
	w := 2 * math.Pi * k / float64(n)
	coeff := complex(2*math.Cos(w), 0)
	var s1, s2 complex128
	for _, v := range x {
		s0 := v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	// Full complex bin value (valid for complex input, unlike the classic
	// real-signal magnitude shortcut): X[k] = s1 - e^{-jw} * s2.
	xk := s1 - cmplx.Exp(complex(0, -w))*s2
	return real(xk*cmplx.Conj(xk)) / float64(n*n)
}
