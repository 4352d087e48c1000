package sigproc

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestFractionalDelayInteger(t *testing.T) {
	x := IQ{1, 2, 3, 4}
	y := FractionalDelay(x, 2, nil)
	want := IQ{0, 0, 1, 2}
	for i := range want {
		if cmplx.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestFractionalDelayHalfSample(t *testing.T) {
	x := IQ{0, 2, 4, 6}
	y := FractionalDelay(x, 0.5, nil)
	// Linear interpolation: y[i] = (x[i-1] + x[i]) / 2 for interior points.
	if cmplx.Abs(y[1]-1) > 1e-12 || cmplx.Abs(y[2]-3) > 1e-12 {
		t.Fatalf("half-sample delay wrong: %v", y)
	}
}

func TestFractionalDelayZero(t *testing.T) {
	x := IQ{1 + 1i, 2, 3}
	y := FractionalDelay(x, 0, nil)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("zero delay must be identity: %v", y)
		}
	}
}

func TestFractionalDelayNegativeAdvances(t *testing.T) {
	x := IQ{1, 2, 3, 4}
	y := FractionalDelay(x, -1, nil)
	if y[0] != 2 || y[2] != 4 {
		t.Fatalf("advance wrong: %v", y)
	}
	if y[3] != 0 {
		t.Fatalf("samples beyond end should be 0, got %v", y[3])
	}
}

func TestResampleIdentity(t *testing.T) {
	x := IQ{1, 2, 3, 4}
	y := Resample(x, 1e6, 1e6)
	if len(y) != len(x) {
		t.Fatalf("len = %d", len(y))
	}
	for i := range x {
		if cmplx.Abs(y[i]-x[i]) > 1e-12 {
			t.Fatalf("identity resample changed data: %v", y)
		}
	}
}

func TestResampleDoubles(t *testing.T) {
	x := IQ{0, 2}
	y := Resample(x, 1, 2)
	if len(y) != 4 {
		t.Fatalf("len = %d, want 4", len(y))
	}
	if cmplx.Abs(y[1]-1) > 1e-12 {
		t.Fatalf("interpolated midpoint = %v, want 1", y[1])
	}
}

func TestResampleToneFrequencyPreserved(t *testing.T) {
	// A tone at f stays at f after resampling 1 MHz -> 2 MHz.
	const n = 512
	x := NewIQ(n)
	for i := range x {
		ph := 2 * math.Pi * 32 * float64(i) / n
		x[i] = cmplx.Exp(complex(0, ph))
	}
	y := Resample(x, 1e6, 2e6)
	ps := PowerSpectrum(y[:1024])
	// Original bin 32 of 512 at 1 MHz = 62.5 kHz -> bin 32 of 1024 at 2 MHz.
	if got := PeakIndex(ps); got != 32 {
		t.Fatalf("tone moved to bin %d, want 32", got)
	}
}

func TestResamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Resample(NewIQ(4), 0, 1)
}

func TestDecimate(t *testing.T) {
	x := IQ{0, 1, 2, 3, 4, 5, 6}
	y := Decimate(x, 3, nil)
	want := IQ{0, 3, 6}
	if len(y) != len(want) {
		t.Fatalf("len = %d", len(y))
	}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestDecimatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Decimate(NewIQ(4), 0, nil)
}

func TestUpsampleZeroOrderHold(t *testing.T) {
	x := IQ{1, 2}
	y := Upsample(x, 3, nil)
	want := IQ{1, 1, 1, 2, 2, 2}
	if len(y) != len(want) {
		t.Fatalf("len = %d", len(y))
	}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestUpsampleDecimateRoundTrip(t *testing.T) {
	x := IQ{1 + 1i, 2, 3 - 1i, 4}
	y := Decimate(Upsample(x, 4, nil), 4, nil)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("round trip mismatch: %v vs %v", y, x)
		}
	}
}

func TestUpsamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Upsample(NewIQ(4), -1, nil)
}
