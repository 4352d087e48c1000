package phy

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/simrand"
)

// chipsToLevels converts ideal chips to envelope levels at a given
// high/low pair, optionally with additive noise.
func chipsToLevels(chips []byte, hi, lo float64, noise float64, src *simrand.Source) []float64 {
	out := make([]float64, len(chips))
	for i, c := range chips {
		v := lo
		if c&1 == 1 {
			v = hi
		}
		if src != nil {
			v += src.Gaussian(0, noise)
		}
		out[i] = v
	}
	return out
}

func randomBits(n int, seed uint64) []byte {
	src := simrand.New(seed)
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = src.Bit()
	}
	return bits
}

// lineCode is the method set the forward codes share, so the
// round-trip tests can run every code through one loop.
type lineCode interface {
	ChipsPerBit() int
	Encode(bits []byte, dst []byte) []byte
	Decode(levels []float64, threshold float64, dst []byte) []byte
}

// namedCode pairs a forward code with its name for failure messages.
type namedCode struct {
	name string
	code lineCode
}

// lineCodes returns fresh instances of every forward code.
func lineCodes() []namedCode {
	return []namedCode{{"manchester", Manchester{}}, {"fm0", &FM0{}}}
}

func TestAllCodesRoundTrip(t *testing.T) {
	bits := randomBits(256, 1)
	for _, c := range lineCodes() {
		code := c.code
		chips := code.Encode(bits, nil)
		if len(chips) != len(bits)*code.ChipsPerBit() {
			t.Fatalf("%s: chip count %d, want %d", c.name, len(chips), len(bits)*code.ChipsPerBit())
		}
		levels := chipsToLevels(chips, 1.0, 0.25, 0, nil)
		got := code.Decode(levels, 0.625, nil)
		if !bytes.Equal(got, bits) {
			t.Fatalf("%s: round trip failed", c.name)
		}
	}
}

func TestCodesRoundTripAutoThreshold(t *testing.T) {
	// Threshold <= 0 asks the decoder to derive its own.
	bits := randomBits(128, 2)
	for _, c := range lineCodes() {
		chips := c.code.Encode(bits, nil)
		levels := chipsToLevels(chips, 0.9, 0.7, 0, nil) // shallow depth
		got := c.code.Decode(levels, 0, nil)
		if !bytes.Equal(got, bits) {
			t.Fatalf("%s: auto-threshold round trip failed", c.name)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		bits := make([]byte, len(data))
		for i, b := range data {
			bits[i] = b & 1
		}
		for _, c := range lineCodes() {
			chips := c.code.Encode(bits, nil)
			levels := chipsToLevels(chips, 1, 0, 0, nil)
			got := c.code.Decode(levels, 0.5, nil)
			if !bytes.Equal(got, bits) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestManchesterDCBalance(t *testing.T) {
	bits := randomBits(512, 3)
	chips := Manchester{}.Encode(bits, nil)
	ones := 0
	for _, c := range chips {
		ones += int(c)
	}
	if ones*2 != len(chips) {
		t.Fatalf("Manchester must be exactly DC balanced: %d/%d high", ones, len(chips))
	}
}

func TestManchesterThresholdFree(t *testing.T) {
	bits := randomBits(64, 4)
	chips := Manchester{}.Encode(bits, nil)
	// Arbitrary channel scaling and offset must not matter.
	levels := chipsToLevels(chips, 0.002, 0.0005, 0, nil)
	got := Manchester{}.Decode(levels, 12345, nil) // absurd threshold, ignored
	if !bytes.Equal(got, bits) {
		t.Fatal("Manchester decode must ignore the threshold")
	}
}

func TestFM0TransitionsAtEveryBoundary(t *testing.T) {
	bits := randomBits(200, 5)
	enc := &FM0{}
	chips := enc.Encode(bits, nil)
	for i := 2; i < len(chips); i += 2 {
		if chips[i] == chips[i-1] {
			t.Fatalf("FM0 missing boundary transition before bit %d", i/2)
		}
	}
}

func TestFM0MidBitTransitionEncodesZero(t *testing.T) {
	enc := &FM0{}
	chips := enc.Encode([]byte{0, 1, 0}, nil)
	// bit 0 -> halves differ; bit 1 -> halves equal.
	if chips[0] == chips[1] {
		t.Fatal("data 0 must have a mid-bit transition")
	}
	if chips[2] != chips[3] {
		t.Fatal("data 1 must not have a mid-bit transition")
	}
	if chips[4] == chips[5] {
		t.Fatal("second data 0 must have a mid-bit transition")
	}
}

func TestFM0StatefulAcrossCalls(t *testing.T) {
	enc := &FM0{}
	a := enc.Encode([]byte{1}, nil)
	b := enc.Encode([]byte{1}, nil)
	// The second bit must start with an inverted level relative to the
	// end of the first.
	if b[0] == a[1] {
		t.Fatal("FM0 must carry line level across Encode calls")
	}
	enc.Reset()
	c := enc.Encode([]byte{1}, nil)
	if !bytes.Equal(c, a) {
		t.Fatal("Reset must restore the initial level")
	}
}

func TestFM0DecodeNoisy(t *testing.T) {
	src := simrand.New(6)
	bits := randomBits(1000, 7)
	enc := &FM0{}
	chips := enc.Encode(bits, nil)
	levels := chipsToLevels(chips, 1.0, 0.25, 0.05, src)
	got := (&FM0{}).Decode(levels, 0.625, nil)
	errs := 0
	for i := range bits {
		if got[i] != bits[i] {
			errs++
		}
	}
	if errs > 5 {
		t.Fatalf("FM0 with mild noise: %d/1000 bit errors", errs)
	}
}

func TestDecodeIgnoresTrailingPartialGroup(t *testing.T) {
	levels := []float64{1, 0, 1} // 1.5 Manchester symbols
	got := Manchester{}.Decode(levels, 0.5, nil)
	if len(got) != 1 {
		t.Fatalf("partial group must be dropped, got %d bits", len(got))
	}
}

func TestMidpointThreshold(t *testing.T) {
	if midpointThreshold(nil) != 0 {
		t.Fatal("empty levels -> 0")
	}
	if got := midpointThreshold([]float64{0.2, 1.0, 0.6}); got != 0.6 {
		t.Fatalf("midpoint = %g, want 0.6", got)
	}
}
