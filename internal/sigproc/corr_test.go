package sigproc

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestCrossCorrelateFindsPattern(t *testing.T) {
	pattern := IQ{1, -1, 1}
	x := make(IQ, 16)
	copy(x[7:], pattern)
	c := CrossCorrelate(x, pattern, nil)
	if got := peakAbsIndex(c); got != 7 {
		t.Fatalf("peak at %d, want 7", got)
	}
}

// peakAbsIndex returns the index of the largest |x[i]|.
func peakAbsIndex(x IQ) int {
	best := 0
	for i, v := range x {
		if cmplx.Abs(v) > cmplx.Abs(x[best]) {
			best = i
		}
	}
	return best
}

func TestCrossCorrelateLengths(t *testing.T) {
	if got := len(CrossCorrelate(NewIQ(5), NewIQ(3), nil)); got != 3 {
		t.Fatalf("len = %d, want 3", got)
	}
	if got := len(CrossCorrelate(NewIQ(2), NewIQ(3), nil)); got != 0 {
		t.Fatalf("pattern longer than signal: len = %d, want 0", got)
	}
}

func TestCrossCorrelateConjugates(t *testing.T) {
	// Correlating a complex tone against itself should give a real peak
	// equal to the pattern energy.
	pattern := IQ{1i, 1i, 1i}
	c := CrossCorrelate(pattern, pattern, nil)
	if math.Abs(real(c[0])-3) > 1e-12 || math.Abs(imag(c[0])) > 1e-12 {
		t.Fatalf("self-correlation = %v, want 3", c[0])
	}
}

func TestCorrelateRealFindsPattern(t *testing.T) {
	pattern := []float64{1, 0, 1}
	x := make([]float64, 12)
	copy(x[4:], pattern)
	c := CorrelateReal(x, pattern, nil)
	if got := PeakIndex(c); got != 4 {
		t.Fatalf("peak at %d, want 4", got)
	}
}

func TestNormalizedCorrelateBounds(t *testing.T) {
	pattern := []float64{1, -1, 1, -1}
	x := []float64{0, 1, -1, 1, -1, 0, 0, 5, 5, 5}
	c := NormalizedCorrelateReal(x, pattern, nil)
	for i, v := range c {
		if v > 1+1e-9 || v < -1-1e-9 {
			t.Fatalf("correlation %d out of [-1,1]: %g", i, v)
		}
	}
	if got := PeakIndex(c); got != 1 {
		t.Fatalf("peak at %d, want 1", got)
	}
	if c[1] < 0.999 {
		t.Fatalf("exact match should correlate ~1, got %g", c[1])
	}
}

func TestNormalizedCorrelateScaleInvariant(t *testing.T) {
	pattern := []float64{1, 2, 3, 2, 1}
	x := make([]float64, 20)
	for i, p := range pattern {
		x[6+i] = p * 100 // heavily scaled copy
	}
	c := NormalizedCorrelateReal(x, pattern, nil)
	if got := PeakIndex(c); got != 6 {
		t.Fatalf("peak at %d, want 6", got)
	}
	if c[6] < 0.999 {
		t.Fatalf("scaled match should still correlate ~1, got %g", c[6])
	}
}

func TestNormalizedCorrelateZeroEnergy(t *testing.T) {
	// Constant pattern has zero variance after mean removal: define as 0.
	c := NormalizedCorrelateReal([]float64{1, 2, 3}, []float64{5, 5}, nil)
	for _, v := range c {
		if v != 0 {
			t.Fatalf("zero-energy pattern should give 0, got %g", v)
		}
	}
}

func TestPeakIndexEmpty(t *testing.T) {
	if PeakIndex(nil) != -1 {
		t.Fatal("empty PeakIndex should be -1")
	}
}

// A Matcher must reproduce NormalizedCorrelateReal exactly — it is the
// hoisted-precompute form the preamble detector runs per frame.
func TestMatcherMatchesNormalizedCorrelate(t *testing.T) {
	src := []float64{0.4, 1.2, -0.7, 0.9, 0.1, 2.2, -1.5, 0.6, 0.0, 1.1, -0.3, 0.8}
	for _, pat := range [][]float64{
		{1, 0, 1},
		{2, 2, 2}, // zero-energy after mean removal
		{0.5, -1.5, 0.25, 1},
	} {
		want := NormalizedCorrelateReal(src, pat, nil)
		m := NewMatcher(pat)
		got := m.Correlate(src, nil)
		if len(got) != len(want) {
			t.Fatalf("length %d != %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pattern %v offset %d: matcher %v != one-shot %v", pat, i, got[i], want[i])
			}
		}
		// Reusing the matcher and its dst must not change results.
		dst := got[:0]
		again := m.Correlate(src, dst)
		for i := range again {
			if again[i] != want[i] {
				t.Fatalf("reused matcher diverged at %d", i)
			}
		}
	}
}

func TestMatcherCopiesPattern(t *testing.T) {
	pat := []float64{1, 2, 3}
	m := NewMatcher(pat)
	want := m.Correlate([]float64{1, 2, 3, 4, 5}, nil)
	pat[0] = 99 // mutate the caller's slice
	got := m.Correlate([]float64{1, 2, 3, 4, 5}, nil)
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("matcher must not alias the caller's pattern")
		}
	}
}

func TestMatcherAllocFree(t *testing.T) {
	m := NewMatcher([]float64{1, 0, 1, 0, 1})
	x := make([]float64, 256)
	for i := range x {
		x[i] = float64(i % 7)
	}
	dst := m.Correlate(x, nil)
	allocs := testing.AllocsPerRun(20, func() {
		dst = m.Correlate(x, dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("Matcher.Correlate with reused dst allocates %.1f objects", allocs)
	}
}
