package phy

// The forward link's line codes map data bits to on-air chips and back.
// Backscatter links use DC-balanced codes so the tag's threshold tracker
// sees both levels often: the link runs FM0, and Manchester is kept as
// the other bi-phase code.
//
// Encode appends chip values (0 or 1, one per byte) for the given bits
// (one per byte) to dst. Decode converts per-chip soft levels (averaged
// envelope amplitudes) back to bits, appending to dst; threshold is the
// level separating high from low chips (a threshold <= 0 asks the
// decoder to derive its own). Trailing partial chip groups are ignored.

// midpointThreshold derives a slicing threshold as the midpoint between
// the lowest and highest observed levels. Valid whenever both chip levels
// appear in the window, which DC-balanced codes guarantee.
func midpointThreshold(levels []float64) float64 {
	if len(levels) == 0 {
		return 0
	}
	lo, hi := levels[0], levels[0]
	for _, v := range levels[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return (lo + hi) / 2
}

// Manchester encodes 1 as high-low and 0 as low-high (IEEE convention
// inverted; the choice only matters for consistency). Decoding compares
// the two half-chips, so it needs no absolute threshold.
type Manchester struct{}

// ChipsPerBit returns the fixed chip expansion factor.
func (Manchester) ChipsPerBit() int { return 2 }

// Encode appends the chips for bits to dst and returns it.
func (Manchester) Encode(bits []byte, dst []byte) []byte {
	for _, b := range bits {
		if b&1 == 1 {
			dst = append(dst, 1, 0)
		} else {
			dst = append(dst, 0, 1)
		}
	}
	return dst
}

// Decode appends the bits recovered from per-chip levels to dst and
// returns it; the threshold is ignored.
func (Manchester) Decode(levels []float64, _ float64, dst []byte) []byte {
	for i := 0; i+1 < len(levels); i += 2 {
		if levels[i] > levels[i+1] {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// FM0 is the bi-phase space code used by EPC Gen2 RFID: the level always
// inverts at a bit boundary, and a data 0 adds a mid-bit inversion.
// Decoding compares the two half-bits (equal halves = 1), which is
// threshold-free and self-synchronising against slow envelope drift.
type FM0 struct {
	// level is the current line level carried across Encode calls so a
	// frame can be encoded incrementally.
	level byte
}

// ChipsPerBit returns the fixed chip expansion factor.
func (*FM0) ChipsPerBit() int { return 2 }

// Reset returns the encoder to the initial line level.
func (f *FM0) Reset() { f.level = 0 }

// Encode appends the chips for bits to dst and returns it, continuing
// from the line level the previous call left.
func (f *FM0) Encode(bits []byte, dst []byte) []byte {
	for _, b := range bits {
		f.level ^= 1 // invert at bit boundary
		first := f.level
		second := f.level
		if b&1 == 0 {
			second ^= 1 // mid-bit inversion encodes 0
			f.level = second
		}
		dst = append(dst, first, second)
	}
	return dst
}

// Decode appends the bits recovered from per-chip levels to dst and
// returns it.
func (*FM0) Decode(levels []float64, threshold float64, dst []byte) []byte {
	if threshold <= 0 {
		// FM0 inverts at every bit boundary, so any multi-bit window
		// contains both levels and the midpoint is well defined.
		threshold = midpointThreshold(levels)
	}
	for i := 0; i+1 < len(levels); i += 2 {
		// Equal halves -> no mid-bit transition -> data 1.
		a := levels[i] > threshold
		b := levels[i+1] > threshold
		if a == b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}
