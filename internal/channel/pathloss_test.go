package channel

import (
	"math"
	"testing"

	"repro/internal/simrand"
)

// refGain is the reference LogDistance.Gain: the clamps, then a plain
// math.Pow. The fast path must match it bit for bit.
func refGain(l LogDistance, d float64) float64 {
	if d < 0.1 {
		d = 0.1
	}
	n := l.Exponent
	if n <= 0 {
		n = 2
	}
	return l.RefGain * math.Pow(1/d, n)
}

// sameBits compares floats by representation, so NaN payloads and the
// sign of zero count.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestPowMatchesMathPow sweeps random bases over the whole positive
// exponent range and exponents around the integer and half-integer
// points the squaring chain and the Exp/Log split treat differently.
func TestPowMatchesMathPow(t *testing.T) {
	src := simrand.New(11)
	for k := 0; k < 200000; k++ {
		x := math.Ldexp(0.5+0.5*src.Float64(), src.IntN(2200)-1100)
		y := float64(src.IntN(17)) / 2
		if src.IntN(2) == 0 {
			y = 8 * src.Float64()
		}
		if got, want := pow(x, y), math.Pow(x, y); !sameBits(got, want) {
			t.Fatalf("pow(%v, %v) = %v, math.Pow = %v", x, y, got, want)
		}
	}
	for _, c := range [][2]float64{
		{0, 2}, {math.Inf(1), 2}, {math.NaN(), 2}, {2, math.NaN()}, {-2, 2}, {2, -2},
		{2, 0}, {1, 7.5}, {4, 0.5}, {0x1p-1074, 3}, {1e300, 2}, {1e-300, 2.5},
		{2, 1 << 40}, {math.MaxFloat64, 1}, {0x1p-1022, 1}, {0x1p-511, 2},
	} {
		if got, want := pow(c[0], c[1]), math.Pow(c[0], c[1]); !sameBits(got, want) {
			t.Errorf("pow(%v, %v) = %v, math.Pow = %v", c[0], c[1], got, want)
		}
	}
}

// FuzzLogDistanceGain: pow must match math.Pow for every operand pair,
// including the ratio d0/d for any reference distance d0; and Gain
// (reference distance 1 m) is bit-identical to RefGain·math.Pow(1/d, n)
// over every distance and reference gain, for exponents in the range
// Scenario.Validate admits ([1, 8]).
func FuzzLogDistanceGain(f *testing.F) {
	f.Add(0.05, 2.5, 1.0, 1e-3)
	f.Add(10.0, 3.0, 1.0, 1e-3)
	f.Add(1e200, 8.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, d, n, d0, ref float64) {
		if got, want := pow(d0/d, n), math.Pow(d0/d, n); !sameBits(got, want) {
			t.Fatalf("pow(%v, %v) = %v, math.Pow = %v", d0/d, n, got, want)
		}
		if !(n >= 1 && n <= 8) {
			return
		}
		l := LogDistance{RefGain: ref, Exponent: n}
		if got, want := l.Gain(d), refGain(l, d); !sameBits(got, want) {
			t.Fatalf("Gain(%v) with n=%v ref=%v = %v, want %v", d, n, ref, got, want)
		}
	})
}

func BenchmarkLogDistanceGain(b *testing.B) {
	l := NewLogDistance(915e6, 2.5)
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += l.Gain(1 + float64(i&1023)*0.05)
	}
	if sum < 0 {
		b.Fatal(sum)
	}
}
