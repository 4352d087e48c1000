package phy

import (
	"bytes"
	"math"
	"testing"
)

func TestOOKDefaults(t *testing.T) {
	var o OOK
	if o.SamplesPerChipN() != 4 {
		t.Fatalf("default sps = %d", o.SamplesPerChipN())
	}
	if o.LevelHigh() != 1 {
		t.Fatalf("default high = %g", o.LevelHigh())
	}
	if math.Abs(o.LevelLow()-0.25) > 1e-12 {
		t.Fatalf("default low = %g, want 0.25", o.LevelLow())
	}
}

func TestOOKAppendChips(t *testing.T) {
	o := OOK{SamplesPerChip: 2, Depth: 0.5}
	wave := o.AppendChips(nil, []byte{1, 0})
	if len(wave) != 4 {
		t.Fatalf("len = %d, want 4", len(wave))
	}
	if real(wave[0]) != 1 || real(wave[1]) != 1 {
		t.Fatalf("high chip = %v", wave[:2])
	}
	if real(wave[2]) != 0.5 || real(wave[3]) != 0.5 {
		t.Fatalf("low chip = %v (want amplitude 0.5)", wave[2:])
	}
}

func TestOOKAppendIdle(t *testing.T) {
	o := OOK{SamplesPerChip: 3}
	wave := o.AppendIdle(nil, 2)
	if len(wave) != 6 {
		t.Fatalf("len = %d", len(wave))
	}
	for _, v := range wave {
		if real(v) != o.LevelHigh() {
			t.Fatalf("idle must be at high level: %v", v)
		}
	}
}

func TestOOKNumSamples(t *testing.T) {
	o := OOK{SamplesPerChip: 8}
	if o.NumSamples(10) != 80 {
		t.Fatal("NumSamples mismatch")
	}
}

func TestOOKChipLevels(t *testing.T) {
	o := OOK{SamplesPerChip: 4}
	chips := []byte{1, 0, 1}
	wave := o.AppendChips(nil, chips)
	env := wave.Envelope(nil)
	levels := o.ChipLevels(env, 0, nil)
	if len(levels) != 3 {
		t.Fatalf("levels = %v", levels)
	}
	if math.Abs(levels[0]-1) > 1e-12 || math.Abs(levels[1]-0.25) > 1e-12 {
		t.Fatalf("levels = %v", levels)
	}
}

func TestOOKChipLevelsOffset(t *testing.T) {
	o := OOK{SamplesPerChip: 2}
	env := []float64{9, 9, 1, 1, 0, 0} // two junk samples then chips
	levels := o.ChipLevels(env, 2, nil)
	if len(levels) != 2 || levels[0] != 1 || levels[1] != 0 {
		t.Fatalf("levels = %v", levels)
	}
	// Negative offset clamps to zero.
	l2 := o.ChipLevels(env, -5, nil)
	if len(l2) != 3 {
		t.Fatalf("clamped offset levels = %v", l2)
	}
}

func TestOOKModulateDemodulateRoundTrip(t *testing.T) {
	o := OOK{SamplesPerChip: 5, Depth: 0.75}
	code := &FM0{}
	bits := randomBits(400, 11)
	chips := code.Encode(bits, nil)
	wave := o.AppendChips(nil, chips)
	env := wave.Envelope(nil)
	levels := o.ChipLevels(env, 0, nil)
	got := (&FM0{}).Decode(levels, o.SliceThreshold(1), nil)
	if !bytes.Equal(got, bits) {
		t.Fatal("noiseless OOK round trip must be perfect")
	}
}

func TestOOKMeanPower(t *testing.T) {
	o := OOK{Depth: 1} // true on-off keying
	if math.Abs(o.MeanPower()-0.5) > 1e-12 {
		t.Fatalf("mean power = %g, want 0.5", o.MeanPower())
	}
}

func TestOOKSliceThresholdScales(t *testing.T) {
	o := OOK{Depth: 0.5}
	base := o.SliceThreshold(1)
	if got := o.SliceThreshold(0.1); math.Abs(got-base*0.1) > 1e-12 {
		t.Fatalf("threshold does not scale with channel amplitude")
	}
}

func TestRateTable(t *testing.T) {
	r, err := RateByID(DefaultRates, 2)
	if err != nil || r.Name != "1x" {
		t.Fatalf("RateByID: %v %v", r, err)
	}
	if _, err := RateByID(DefaultRates, 99); err == nil {
		t.Fatal("unknown rate must error")
	}
}

func TestRateBitsPerSecond(t *testing.T) {
	r := Rate{SamplesPerChip: 4}
	// 1 MHz / 4 sps = 250 kchip/s; FM0 = 2 chips/bit -> 125 kbit/s.
	if got := r.BitsPerSecond(1e6); math.Abs(got-125e3) > 1e-9 {
		t.Fatalf("rate = %g, want 125e3", got)
	}
}

func TestDefaultRatesOrderedFastestLast(t *testing.T) {
	prev := 0.0
	for _, r := range DefaultRates {
		bps := r.BitsPerSecond(1e6)
		if bps <= prev {
			t.Fatalf("rates must be strictly increasing: %s at %g", r.Name, bps)
		}
		prev = bps
	}
}
