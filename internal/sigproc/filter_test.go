package sigproc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMovingAverageConstantInput(t *testing.T) {
	m := NewMovingAverage(4)
	for i := 0; i < 10; i++ {
		got := m.Push(3)
		if !almostEq(got, 3, eps) {
			t.Fatalf("push %d: got %g, want 3", i, got)
		}
	}
}

func TestMovingAveragePartialWindow(t *testing.T) {
	m := NewMovingAverage(4)
	if got := m.Push(2); !almostEq(got, 2, eps) {
		t.Fatalf("first push = %g", got)
	}
	if got := m.Push(4); !almostEq(got, 3, eps) {
		t.Fatalf("second push = %g", got)
	}
	if got := m.Value(); !almostEq(got, 3, eps) {
		t.Fatalf("Value = %g", got)
	}
}

func TestMovingAverageSlides(t *testing.T) {
	m := NewMovingAverage(2)
	m.Push(0)
	m.Push(10)
	if got := m.Push(20); !almostEq(got, 15, eps) {
		t.Fatalf("got %g, want 15", got)
	}
}

func TestMovingAverageReset(t *testing.T) {
	m := NewMovingAverage(3)
	m.Push(5)
	m.Reset()
	if m.Value() != 0 {
		t.Fatal("Value after Reset should be 0")
	}
	if got := m.Push(7); !almostEq(got, 7, eps) {
		t.Fatalf("push after reset = %g", got)
	}
}

func TestMovingAveragePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMovingAverage(0)
}

func TestMovingAverageWindow(t *testing.T) {
	if NewMovingAverage(7).Window() != 7 {
		t.Fatal("Window mismatch")
	}
}

// Property: after the window fills, the output equals the brute-force
// average of the last N inputs.
func TestMovingAverageMatchesBruteForce(t *testing.T) {
	f := func(vals []uint8, winRaw uint8) bool {
		win := int(winRaw%8) + 1
		if len(vals) < win {
			return true
		}
		m := NewMovingAverage(win)
		var last float64
		for _, v := range vals {
			last = m.Push(float64(v))
		}
		var sum float64
		for _, v := range vals[len(vals)-win:] {
			sum += float64(v)
		}
		return almostEq(last, sum/float64(win), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSinglePoleIIRConverges(t *testing.T) {
	f := NewSinglePoleIIR(1000, 1e6)
	var y float64
	for i := 0; i < 100000; i++ {
		y = f.Push(1)
	}
	if !almostEq(y, 1, 1e-6) {
		t.Fatalf("IIR should converge to input level, got %g", y)
	}
	f.Reset()
	if f.Value() != 0 {
		t.Fatal("Reset should clear state")
	}
}

func TestSinglePoleIIRSmooths(t *testing.T) {
	f := NewSinglePoleIIR(100, 1e6)
	// Alternate 0/2: output should settle near the mean 1 with small ripple.
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	var y float64
	for i := 0; i < 200000; i++ {
		x := float64(2 * (i % 2))
		y = f.Push(x)
		if i > 100000 {
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
	}
	if hi-lo > 0.01 {
		t.Fatalf("ripple too large: [%g, %g]", lo, hi)
	}
	if math.Abs((lo+hi)/2-1) > 0.01 {
		t.Fatalf("settled mean %g, want ~1", (lo+hi)/2)
	}
}

func TestSinglePoleIIRPanics(t *testing.T) {
	for _, tc := range []struct{ fc, fs float64 }{{0, 1e6}, {1e6, 0}, {6e5, 1e6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for fc=%g fs=%g", tc.fc, tc.fs)
				}
			}()
			NewSinglePoleIIR(tc.fc, tc.fs)
		}()
	}
}

func TestFIRIdentity(t *testing.T) {
	f := NewFIR([]float64{1})
	x := IQ{1 + 2i, 3, 5i}
	y := f.Apply(x, nil)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity FIR changed sample %d: %v != %v", i, y[i], x[i])
		}
	}
}

func TestFIRDelay(t *testing.T) {
	f := NewFIR([]float64{0, 1}) // one-sample delay
	if got := f.Push(7); got != 0 {
		t.Fatalf("first output = %v, want 0", got)
	}
	if got := f.Push(0); got != 7 {
		t.Fatalf("second output = %v, want 7", got)
	}
}

func TestFIRResetAndTaps(t *testing.T) {
	f := NewFIR([]float64{0.5, 0.5})
	f.Push(10)
	f.Reset()
	if got := f.Push(0); got != 0 {
		t.Fatalf("after reset got %v, want 0", got)
	}
	if f.NumTaps() != 2 {
		t.Fatal("NumTaps mismatch")
	}
}

func TestFIRPanicsOnEmptyTaps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFIR(nil)
}

func TestLowpassTapsDCGain(t *testing.T) {
	taps := LowpassTaps(1e5, 1e6, 31)
	var sum float64
	for _, v := range taps {
		sum += v
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Fatalf("DC gain = %g, want 1", sum)
	}
}

func TestLowpassAttenuatesHighFrequency(t *testing.T) {
	const fs = 1e6
	taps := LowpassTaps(5e4, fs, 63)
	f := NewFIR(taps)
	// Feed a tone at 0.4*fs (well above cutoff) and one at DC.
	n := 4096
	tone := make(IQ, n)
	for i := range tone {
		ph := 2 * math.Pi * 0.4 * float64(i)
		tone[i] = complex(math.Cos(ph), math.Sin(ph))
	}
	out := f.Apply(tone, nil)
	hiPower := out[1024:].Power()
	f.Reset()
	dc := NewIQ(n).Fill(1)
	outDC := f.Apply(dc, nil)
	dcPower := outDC[1024:].Power()
	if DB(hiPower/dcPower) > -40 {
		t.Fatalf("stopband rejection only %.1f dB", DB(hiPower/dcPower))
	}
}

func TestLowpassTapsPanics(t *testing.T) {
	for _, tc := range []struct {
		fc, fs float64
		n      int
	}{{0, 1e6, 11}, {6e5, 1e6, 11}, {1e3, 1e6, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %+v", tc)
				}
			}()
			LowpassTaps(tc.fc, tc.fs, tc.n)
		}()
	}
}

func TestDCBlockerRemovesDC(t *testing.T) {
	d := NewDCBlocker(0.995)
	var y float64
	for i := 0; i < 100000; i++ {
		y = d.Push(5)
	}
	if math.Abs(y) > 1e-3 {
		t.Fatalf("residual DC after blocker: %g", y)
	}
	d.Reset()
	if got := d.Push(1); !almostEq(got, 1, eps) {
		t.Fatalf("first sample after reset = %g, want 1 (differentiator)", got)
	}
}

func TestDCBlockerPanics(t *testing.T) {
	for _, r := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for r=%g", r)
				}
			}()
			NewDCBlocker(r)
		}()
	}
}

// Property: FIR filtering is linear — filter(a*x) == a*filter(x).
func TestFIRLinearityProperty(t *testing.T) {
	f := func(scale int8, raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		g := complex(float64(scale)/8, 0)
		x := make(IQ, len(raw))
		for i, v := range raw {
			x[i] = complex(float64(v), 0)
		}
		taps := []float64{0.25, 0.5, 0.25}
		f1 := NewFIR(taps)
		f2 := NewFIR(taps)
		y1 := f1.Apply(x.Clone().Scale(g), nil)
		y2 := f2.Apply(x, nil)
		for i := range y1 {
			d := y1[i] - y2[i]*g
			if math.Abs(real(d))+math.Abs(imag(d)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// A reused (Reset) filter must produce exactly the output of a fresh
// one — the lifecycle contract the experiment harness relies on when
// it recycles DSP state across Monte-Carlo cells.
func TestFIRResetMatchesFresh(t *testing.T) {
	taps := LowpassTaps(0.1e6, 1e6, 15)
	x := make(IQ, 200)
	src := newTestSource(5)
	for i := range x {
		x[i] = complex(src.next(), src.next())
	}
	reused := NewFIR(taps)
	first := reused.Apply(x, nil)
	_ = first
	reused.Reset()
	got := reused.Apply(x, nil)

	fresh := NewFIR(taps)
	want := fresh.Apply(x, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: reused %v != fresh %v", i, got[i], want[i])
		}
	}
}

// newTestSource is a tiny deterministic value generator for filter
// tests (decoupled from simrand to keep sigproc dependency-free).
type testSource struct{ state uint64 }

func newTestSource(seed uint64) *testSource { return &testSource{state: seed*2654435761 + 1} }

func (s *testSource) next() float64 {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	return float64(int64(s.state>>11)) / float64(1<<52)
}
