package sigproc

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := NewIQ(8)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTDCTone(t *testing.T) {
	x := NewIQ(16).Fill(1)
	FFT(x)
	if cmplx.Abs(x[0]-16) > 1e-9 {
		t.Fatalf("DC bin = %v, want 16", x[0])
	}
	for i := 1; i < 16; i++ {
		if cmplx.Abs(x[i]) > 1e-9 {
			t.Fatalf("bin %d = %v, want 0", i, x[i])
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n, k = 64, 5
	x := NewIQ(n)
	for i := range x {
		ph := 2 * math.Pi * k * float64(i) / n
		x[i] = cmplx.Exp(complex(0, ph))
	}
	FFT(x)
	for i := range x {
		want := 0.0
		if i == k {
			want = n
		}
		if math.Abs(cmplx.Abs(x[i])-want) > 1e-9 {
			t.Fatalf("bin %d magnitude %g, want %g", i, cmplx.Abs(x[i]), want)
		}
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	p := NewPRBS31(5)
	x := make(IQ, 128)
	for i := range x {
		x[i] = complex(float64(p.NextBit())*2-1, float64(p.NextBit())*2-1)
	}
	orig := x.Clone()
	FFT(x)
	IFFT(x)
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, x[i], orig[i])
		}
	}
}

func TestFFTParseval(t *testing.T) {
	p := NewPRBS15(9)
	x := make(IQ, 256)
	for i := range x {
		x[i] = complex(float64(p.NextBit()), float64(p.NextBit()))
	}
	timeEnergy := x.Energy()
	f := x.Clone()
	FFT(f)
	freqEnergy := f.Energy() / float64(len(f))
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Fatalf("Parseval violated: %g vs %g", timeEnergy, freqEnergy)
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FFT(NewIQ(12))
}

func TestFFTTrivialSizes(t *testing.T) {
	var empty IQ
	FFT(empty) // must not panic
	one := IQ{3 + 4i}
	FFT(one)
	if one[0] != 3+4i {
		t.Fatal("size-1 FFT must be identity")
	}
	IFFT(one)
	if one[0] != 3+4i {
		t.Fatal("size-1 IFFT must be identity")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPowerSpectrumTone(t *testing.T) {
	const n = 128
	x := NewIQ(n)
	for i := range x {
		ph := 2 * math.Pi * 10 * float64(i) / n
		x[i] = cmplx.Exp(complex(0, ph))
	}
	ps := PowerSpectrum(x)
	if PeakIndex(ps) != 10 {
		t.Fatalf("spectrum peak at %d, want 10", PeakIndex(ps))
	}
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	const n = 256
	const fs = 1e6
	x := NewIQ(n)
	toneHz := 5.0 / n * fs // exactly bin 5
	for i := range x {
		ph := 2 * math.Pi * toneHz * float64(i) / fs
		x[i] = cmplx.Exp(complex(0, ph))
	}
	pw := Goertzel(x, toneHz, fs)
	// A unit tone at an exact bin has |X[k]|^2/n^2 = 1.
	if math.Abs(pw-1) > 1e-9 {
		t.Fatalf("Goertzel power = %g, want 1", pw)
	}
	off := Goertzel(x, toneHz*3, fs)
	if off > 1e-9 {
		t.Fatalf("Goertzel off-bin power = %g, want ~0", off)
	}
}

func TestGoertzelEmpty(t *testing.T) {
	if Goertzel(nil, 1000, 1e6) != 0 {
		t.Fatal("empty buffer should give 0")
	}
}
